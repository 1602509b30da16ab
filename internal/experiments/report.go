package experiments

import (
	"fmt"
	"io"
)

// RunAll regenerates every paper artifact and writes the full report to
// w: Tables I-IX and Figures 2, 5-9, followed by the Result 1-5
// summaries, the bi-objective time/energy comparison, and (when ablate
// is true) the ablation studies.
func (s *Suite) RunAll(w io.Writer, ablate bool) error {
	section := func(text string) error {
		_, err := io.WriteString(w, text+"\n")
		return err
	}

	if err := section(s.RenderFig1()); err != nil {
		return err
	}
	if err := section(s.RenderTable1()); err != nil {
		return err
	}
	if err := section(RenderTable2()); err != nil {
		return err
	}
	if err := section(s.RenderTable3()); err != nil {
		return err
	}
	if err := section(RenderFig3()); err != nil {
		return err
	}
	if err := section(RenderFig4()); err != nil {
		return err
	}

	fig2, err := s.Fig2()
	if err != nil {
		return err
	}
	if err := section(RenderFig2(fig2)); err != nil {
		return err
	}

	models, err := s.Models()
	if err != nil {
		return err
	}
	if err := section(fmt.Sprintf(
		"Result 1/2: prediction model accuracy (paper: host 0.027 s / 5.239%%, device 0.074 s / 3.132%%)\n"+
			"  host:   %d train / %d test, abs %.3f s, pct %.3f%%, R2 %.4f\n"+
			"  device: %d train / %d test, abs %.3f s, pct %.3f%%, R2 %.4f\n",
		models.HostReport.TrainN, models.HostReport.TestN,
		models.HostReport.Eval.MeanAbsoluteError, models.HostReport.Eval.MeanPercentError, models.HostReport.Eval.R2,
		models.DeviceReport.TrainN, models.DeviceReport.TestN,
		models.DeviceReport.Eval.MeanAbsoluteError, models.DeviceReport.Eval.MeanPercentError, models.DeviceReport.Eval.R2,
	)); err != nil {
		return err
	}

	fig5, err := s.Fig5()
	if err != nil {
		return err
	}
	if err := section(RenderPredictionCurves(fig5, "Figure 5")); err != nil {
		return err
	}
	fig6, err := s.Fig6()
	if err != nil {
		return err
	}
	if err := section(RenderPredictionCurves(fig6, "Figure 6")); err != nil {
		return err
	}
	fig7, err := s.Fig7()
	if err != nil {
		return err
	}
	if err := section(RenderErrorHistogram(fig7, "Figure 7")); err != nil {
		return err
	}
	fig8, err := s.Fig8()
	if err != nil {
		return err
	}
	if err := section(RenderErrorHistogram(fig8, "Figure 8")); err != nil {
		return err
	}
	table4, err := s.Table4()
	if err != nil {
		return err
	}
	if err := section(RenderAccuracyTable(table4, "Table IV")); err != nil {
		return err
	}
	table5, err := s.Table5()
	if err != nil {
		return err
	}
	if err := section(RenderAccuracyTable(table5, "Table V")); err != nil {
		return err
	}

	fig9, err := s.Fig9()
	if err != nil {
		return err
	}
	if err := section(RenderFig9(fig9)); err != nil {
		return err
	}
	if err := section(RenderDifferenceTable(Table6(fig9), "Table VI")); err != nil {
		return err
	}
	if err := section(RenderDifferenceTable(Table7(fig9), "Table VII")); err != nil {
		return err
	}
	t8 := Table8(fig9)
	if err := section(RenderSpeedupTable(t8, "Table VIII")); err != nil {
		return err
	}
	t9 := Table9(fig9)
	if err := section(RenderSpeedupTable(t9, "Table IX")); err != nil {
		return err
	}

	r3, err := Result3(fig9)
	if err != nil {
		return err
	}
	if err := section(fmt.Sprintf(
		"Result 3: SAML with %d iterations explores %.2f%% of the %d-configuration space (paper: ~5%%),\n"+
			"          at an average %.2f%% percent difference to the EM optimum.\n"+
			"Result 5: max SAML speedup at 1000 iterations: %.2fx vs host-only (paper: 1.74x), %.2fx vs device-only (paper: 2.18x).\n",
		r3.SAMLIterations, r3.Fraction, r3.EMExperiments, r3.AvgPercentDiff,
		t8.MaxSpeedup(1000), t9.MaxSpeedup(1000),
	)); err != nil {
		return err
	}

	bi, err := s.BiObjective(s.reference(), 0.5, 0.10)
	if err != nil {
		return err
	}
	if err := section(RenderBiObjective(bi, s.reference())); err != nil {
		return err
	}

	scen, err := s.ScenarioTable()
	if err != nil {
		return err
	}
	if err := section(RenderScenarioTable(scen)); err != nil {
		return err
	}

	dag, err := s.DAGTable()
	if err != nil {
		return err
	}
	if err := section(RenderDAGTable(dag)); err != nil {
		return err
	}

	if ablate {
		ab, err := s.RenderAblations()
		if err != nil {
			return err
		}
		if err := section(ab); err != nil {
			return err
		}
		sc, err := s.StrategyComparison(s.reference(), 1000)
		if err != nil {
			return err
		}
		if err := section(RenderStrategyComparison(sc, s.reference(), 1000, s.repeats())); err != nil {
			return err
		}
		gaps, err := s.ExactGapTable(1000)
		if err != nil {
			return err
		}
		if err := section(RenderExactGapTable(gaps)); err != nil {
			return err
		}
		md, err := s.ExtMultiDevice(s.reference(), 3, 2500)
		if err != nil {
			return err
		}
		if err := section(RenderMultiDevice(md, s.reference())); err != nil {
			return err
		}
		dyn, dynEM, err := s.ExtDynamicScheduling(s.reference())
		if err != nil {
			return err
		}
		if err := section(RenderDynamicScheduling(dyn, dynEM, s.reference())); err != nil {
			return err
		}
		ad, err := s.ExtAdaptive(1000, 60)
		if err != nil {
			return err
		}
		if err := section(RenderAdaptive(ad, 1000, 60)); err != nil {
			return err
		}
		sweep, err := s.ExtSizeSweep(s.reference(), []float64{50, 100, 200, 400, 800, 1600, 3246})
		if err != nil {
			return err
		}
		if err := section(RenderSizeSweep(sweep, s.reference())); err != nil {
			return err
		}
		saTrace, err := s.RenderSATrace(s.reference(), 1000)
		if err != nil {
			return err
		}
		if err := section(saTrace); err != nil {
			return err
		}
	}
	return nil
}
