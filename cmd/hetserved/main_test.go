package main

import (
	"strings"
	"testing"
	"time"
)

// valid returns a baseline valid parameter set.
func valid() params {
	return params{
		addr:           ":0",
		workers:        4,
		queue:          64,
		cacheSize:      1024,
		parallel:       1,
		drainTimeout:   time.Minute,
		forwardTimeout: 30 * time.Second,
	}
}

// threePeers is a baseline valid 3-node cluster flag pair.
const threePeers = "http://127.0.0.1:18081,http://127.0.0.1:18082,http://127.0.0.1:18083"

func TestValidateAccepts(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*params)
	}{
		{"defaults", func(p *params) {}},
		{"minimum sizing", func(p *params) { p.workers, p.queue, p.cacheSize = 1, 1, 1 }},
		{"sequential search", func(p *params) { p.parallel = 0 }},
		{"scenario defaults", func(p *params) { p.workload, p.platform = "spmv:large", "gpu-like" }},
		{"genome alias default", func(p *params) { p.workload = "human" }},
		{"cluster member", func(p *params) { p.peers, p.nodeID = threePeers, "http://127.0.0.1:18082" }},
		{"cluster trailing slash", func(p *params) { p.peers, p.nodeID = threePeers, "http://127.0.0.1:18082/" }},
		{"cluster replication off", func(p *params) {
			p.peers, p.nodeID, p.replicate = threePeers, "http://127.0.0.1:18081", false
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := valid()
			tc.mut(&p)
			if err := p.validate(); err != nil {
				t.Fatalf("valid params rejected: %v", err)
			}
		})
	}
}

// TestValidateRejects pins the strictly-positive sizing contract: a
// zero or negative worker pool, queue bound or store capacity is a
// flag-level usage error, never a silently substituted default.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*params)
		want string
	}{
		{"empty addr", func(p *params) { p.addr = "" }, "-addr"},
		{"zero workers", func(p *params) { p.workers = 0 }, "-workers"},
		{"negative workers", func(p *params) { p.workers = -1 }, "-workers"},
		{"zero queue", func(p *params) { p.queue = 0 }, "-queue"},
		{"negative queue", func(p *params) { p.queue = -2 }, "-queue"},
		{"zero cache", func(p *params) { p.cacheSize = 0 }, "-cache-size"},
		{"negative cache", func(p *params) { p.cacheSize = -1 }, "-cache-size"},
		{"negative parallel", func(p *params) { p.parallel = -3 }, "-parallel"},
		{"zero drain timeout", func(p *params) { p.drainTimeout = 0 }, "-drain-timeout"},
		{"unknown workload", func(p *params) { p.workload = "plankton" }, "-workload"},
		{"unknown platform", func(p *params) { p.platform = "mainframe" }, "-platform"},
		{"peers without node id", func(p *params) { p.peers = threePeers }, "-node-id"},
		{"node id without peers", func(p *params) { p.nodeID = "http://127.0.0.1:18081" }, "-peers"},
		{"node id not in peers", func(p *params) {
			p.peers, p.nodeID = threePeers, "http://127.0.0.1:9999"
		}, "-peers"},
		{"node id not a url", func(p *params) { p.peers, p.nodeID = threePeers, "127.0.0.1:18081" }, "-node-id"},
		{"zero forward timeout", func(p *params) { p.forwardTimeout = 0 }, "-forward-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := valid()
			tc.mut(&p)
			err := p.validate()
			if err == nil {
				t.Fatalf("expected a validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestRunRejectsInvalid ensures run re-validates (library-style callers
// bypass main's check).
func TestRunRejectsInvalid(t *testing.T) {
	p := valid()
	p.workers = -1
	if err := run(p); err == nil {
		t.Fatalf("run accepted invalid params")
	}
}
