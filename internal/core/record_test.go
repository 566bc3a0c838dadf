package core

import (
	"math"
	"testing"
	"time"

	"approxcache/internal/metrics"
)

// servingStage is the stage each result source is served by.
var servingStage = map[metrics.Source][]Stage{
	metrics.SourceIMU:      {StageIMU},
	metrics.SourceVideo:    {StageVideo, StageSkip},
	metrics.SourceLocal:    {StageLookup, StageExact},
	metrics.SourcePeer:     {StagePeer},
	metrics.SourceDNN:      {StageDNN},
	metrics.SourceFallback: {StageDNN},
	metrics.SourceShed:     {StageDNN},
}

// checkRecord holds one frame's record to the invariants every frame
// must keep, whatever the configuration.
func checkRecord(t *testing.T, e *Engine, rec *FrameRecord, res Result, err error) {
	t.Helper()
	inList := map[Stage]bool{}
	for _, s := range e.stages {
		inList[s.id] = true
	}
	var latency time.Duration
	var energy float64
	served, last := 0, StageNone
	for s := Stage(0); s < numStages; s++ {
		r := rec.Stages[s]
		if r.Outcome == 0 {
			if r.Latency != 0 || r.EnergyMJ != 0 {
				t.Fatalf("stage %s charged %v/%v without running", s, r.Latency, r.EnergyMJ)
			}
			continue
		}
		if !inList[s] {
			t.Fatalf("stage %s ran but is not in the pipeline %v", s, e.stages)
		}
		latency += r.Latency
		energy += r.EnergyMJ
		last = s
		if r.Outcome == OutcomeServed {
			served++
			if rec.Served != s {
				t.Fatalf("stage %s served, record names %s", s, rec.Served)
			}
		}
	}
	if err != nil {
		return
	}
	if served != 1 {
		t.Fatalf("%d stages served %+v", served, res)
	}
	if latency != res.Latency || math.Float64bits(energy) != math.Float64bits(res.EnergyMJ) {
		t.Fatalf("record sums to %v / %v mJ, result says %v / %v mJ", latency, energy, res.Latency, res.EnergyMJ)
	}
	ok := false
	for _, s := range servingStage[res.Source] {
		ok = ok || s == rec.Served
	}
	if !ok {
		t.Fatalf("source %s served by stage %s", res.Source, rec.Served)
	}
	// Nothing runs after the serving stage but the DNN's followers.
	if last != rec.Served && (rec.Served != StageDNN || last < StageRepair) {
		t.Fatalf("stage %s ran after %s served", last, rec.Served)
	}
}

// TestFrameRecordInvariants walks the golden matrix through ProcessRecord
// into one reused record: every frame's record must sum bit for bit to
// its Result, name exactly one serving stage, hold only stages of the
// engine's pipeline and none past the server (the DNN's repair, insert
// and gossip aside) — and the transcripts must still be the parent's.
func TestFrameRecordInvariants(t *testing.T) {
	streams := goldenStreams(t)
	for _, row := range goldenRows() {
		t.Run(row.name, func(t *testing.T) {
			var rec FrameRecord
			got, _ := goldenRun(t, row, streams, func(e *Engine, f diffFrame) (Result, error) {
				res, err := e.ProcessRecord(f.img, f.win, f.truth, &rec)
				checkRecord(t, e, &rec, res, err)
				return res, err
			})
			if got != parentGoldens[row.name] {
				t.Errorf("ProcessRecord's transcript hashes to %s, the parent's to %s", got, parentGoldens[row.name])
			}
		})
	}
}

// runs reports whether s is in the engine's pipeline.
func (e *Engine) runs(s Stage) bool {
	for _, st := range e.stages {
		if st.id == s {
			return true
		}
	}
	return false
}

// TestPipelineMembership: the Disable* switches decide which stages an
// engine has, and only those.
func TestPipelineMembership(t *testing.T) {
	for _, tc := range []struct {
		cfg          func(*Config)
		absent, have []Stage
	}{
		{func(*Config) {}, []Stage{StageSkip, StageExact, StageAdmission},
			[]Stage{StageSensors, StageIMU, StageFrame, StageVideo, StageRepair, StageGossip}},
		{func(c *Config) { c.DisableIMUGate, c.DisableVideoGate = true, true }, []Stage{StageIMU, StageVideo}, []Stage{StageLookup}},
		{func(c *Config) { c.DisableSensorGuards = true }, []Stage{StageSensors, StageFrame}, []Stage{StageIMU}},
		{func(c *Config) { c.RequestDeadline = time.Second }, nil, []Stage{StageAdmission}},
		{func(c *Config) { c.Mode = ModeNaiveSkip }, []Stage{StageIMU, StageLookup}, []Stage{StageFrame, StageSkip, StageDNN}},
	} {
		cfg := DefaultConfig()
		tc.cfg(&cfg)
		f := newFixture(t, cfg, nil)
		for _, s := range tc.absent {
			if f.engine.runs(s) {
				t.Errorf("%+v: pipeline has %s", f.engine.stages, s)
			}
		}
		for _, s := range tc.have {
			if !f.engine.runs(s) {
				t.Errorf("pipeline lacks %s", s)
			}
		}
	}
}

// TestProcessRecordAllocatesNothingOnReuse: frames the inertial gate,
// the video gate and the local cache serve allocate nothing with their
// record filled, into a reused record.
func TestProcessRecordAllocatesNothingOnReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop frames")
	}
	want := map[string]Stage{"imu": StageIMU, "video": StageVideo, "local": StageLookup}
	for _, c := range engineFrameCases {
		stage, ok := want[c.name]
		if !ok {
			continue
		}
		eng, im, win := newEngineFrame(t, c)
		var rec FrameRecord
		allocs := testing.AllocsPerRun(200, func() {
			nextWindow(win)
			if _, err := eng.ProcessRecord(im, win, "", &rec); err != nil {
				t.Fatal(err)
			}
		})
		if rec.Served != stage {
			t.Fatalf("%s: served by %s", c.name, rec.Served)
		}
		if allocs != 0 {
			t.Errorf("%s frame allocates %v times", c.name, allocs)
		}
	}
}
