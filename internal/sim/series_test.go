package sim

import "testing"

func TestSeriesEpochAlignment(t *testing.T) {
	e := NewEngine()
	e.Stats.Inc("x")

	// Attaching at cycle 0 puts the first boundary at one epoch.
	s := NewSeries("run", 100, "x")
	e.Attach(s)

	// Jump the clock past several boundaries in one event: one row per
	// boundary crossed, each on an absolute multiple of the epoch.
	e.At(350, ev(func() { e.Stats.Add("x", 9) }))
	e.Run()
	rows := s.Rows()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (boundaries 100, 200, 300)", len(rows))
	}
	for i, want := range []Cycle{100, 200, 300} {
		if rows[i].EndCycle != want {
			t.Errorf("row %d at cycle %d, want %d", i, rows[i].EndCycle, want)
		}
		if rows[i].Values[0] != 1 {
			t.Errorf("row %d value %d, want 1 (sampled before the event ran)", i, rows[i].Values[0])
		}
	}

	// A series attached mid-run aligns to absolute epoch multiples, not
	// to its attach time: attached at 350, first boundary is 400.
	s2 := NewSeries("late", 100, "x")
	e.Attach(s2)
	e.At(450, Cont{})
	e.Run()
	if rows := s2.Rows(); len(rows) != 1 || rows[0].EndCycle != 400 {
		t.Fatalf("late series rows = %+v, want one row at cycle 400", rows)
	}
}

func TestSeriesFinalPartialEpoch(t *testing.T) {
	e := NewEngine()
	s := NewSeries("run", 1000, "x")
	e.Attach(s)
	e.At(2500, ev(func() { e.Stats.Add("x", 7) }))
	e.Run()

	// CloseSeries flushes the partial epoch [2000, 2500) as a final row.
	e.CloseSeries(s)
	rows := s.Rows()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (1000, 2000, partial 2500)", len(rows))
	}
	if rows[2].EndCycle != 2500 {
		t.Errorf("final row at cycle %d, want 2500", rows[2].EndCycle)
	}
	if rows[2].Values[0] != 7 {
		t.Errorf("final row value %d, want 7", rows[2].Values[0])
	}

	// Finish is idempotent and freezes the series.
	s.Finish(9999, &e.Stats)
	if len(s.Rows()) != 3 {
		t.Errorf("Finish after Finish added rows: %d", len(s.Rows()))
	}

	// A series closed exactly on a boundary gets no duplicate row.
	s2 := NewSeries("exact", 1000, "x")
	s2.advance(2000, &e.Stats)
	s2.Finish(2000, &e.Stats)
	if rows := s2.Rows(); len(rows) != 2 || rows[1].EndCycle != 2000 {
		t.Fatalf("boundary-aligned finish rows = %+v, want rows at 1000 and 2000", rows)
	}
}

func TestSeriesDefaults(t *testing.T) {
	s := NewSeries("d", 0, "a", "b")
	if s.Epoch() != DefaultEpoch {
		t.Errorf("Epoch() = %d, want DefaultEpoch %d", s.Epoch(), DefaultEpoch)
	}
	if got := s.Counters(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Counters() = %v", got)
	}
	if s.Name() != "d" {
		t.Errorf("Name() = %q", s.Name())
	}
}
