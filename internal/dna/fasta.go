package dna

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// fastaLineWidth is the sequence line width used when writing FASTA,
// matching GenBank's conventional 70-column layout.
const fastaLineWidth = 70

// WriteFASTA writes one FASTA record with the given header (without the
// leading '>') and sequence to w.
func WriteFASTA(w io.Writer, header string, seq []byte) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, ">%s\n", header); err != nil {
		return fmt.Errorf("dna: writing FASTA header: %w", err)
	}
	for off := 0; off < len(seq); off += fastaLineWidth {
		end := off + fastaLineWidth
		if end > len(seq) {
			end = len(seq)
		}
		if _, err := bw.Write(seq[off:end]); err != nil {
			return fmt.Errorf("dna: writing FASTA sequence: %w", err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("dna: writing FASTA sequence: %w", err)
		}
	}
	return bw.Flush()
}

// fastaChunk is how many bases StreamFASTA fills at a time: whole
// lines, so every chunk but the last ends on a line break.
const fastaChunk = 4096 * fastaLineWidth

// StreamFASTA writes one FASTA record of n bases to w, byte for byte as
// WriteFASTA writes the same bases, without holding the sequence: fill
// (such as Generator.GenerateAt) supplies the bases from position pos on,
// one fixed-size chunk at a time, so memory does not grow with n.
func StreamFASTA(w io.Writer, header string, n int, fill func(pos int64, dst []byte)) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, ">%s\n", header); err != nil {
		return fmt.Errorf("dna: writing FASTA header: %w", err)
	}
	buf := make([]byte, min(n, fastaChunk))
	for pos := 0; pos < n; pos += len(buf) {
		chunk := buf[:min(len(buf), n-pos)]
		fill(int64(pos), chunk)
		for len(chunk) > 0 {
			line := chunk[:min(len(chunk), fastaLineWidth)]
			chunk = chunk[len(line):]
			if _, err := bw.Write(line); err != nil {
				return fmt.Errorf("dna: writing FASTA sequence: %w", err)
			}
			if err := bw.WriteByte('\n'); err != nil {
				return fmt.Errorf("dna: writing FASTA sequence: %w", err)
			}
		}
	}
	return bw.Flush()
}

// FASTARecord is one parsed FASTA entry.
type FASTARecord struct {
	Header string
	Seq    []byte
}

// ReadFASTA parses all records from r. Sequence lines are concatenated
// with whitespace stripped; bytes other than IUPAC codes cause an error.
func ReadFASTA(r io.Reader) ([]FASTARecord, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<24)
	var records []FASTARecord
	var cur *FASTARecord
	line := 0
	for scanner.Scan() {
		line++
		text := bytes.TrimSpace(scanner.Bytes())
		if len(text) == 0 {
			continue
		}
		if text[0] == '>' {
			records = append(records, FASTARecord{Header: string(text[1:])})
			cur = &records[len(records)-1]
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("dna: line %d: sequence data before any FASTA header", line)
		}
		for _, b := range text {
			if _, err := ExpandIUPAC(b); err != nil {
				return nil, fmt.Errorf("dna: line %d: %v", line, err)
			}
		}
		cur.Seq = append(cur.Seq, text...)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("dna: reading FASTA: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dna: no FASTA records found")
	}
	return records, nil
}
