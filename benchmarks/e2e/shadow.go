package main

import (
	"approxcache/internal/core"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/video"
	"approxcache/internal/vision"
)

// shadow times the layers the engine calls directly, with no interface
// seam to wrap: the sensor guards, the inertial detector, the keyframe
// library, the kNN vote and the stats scoreboard. After each frame of
// a traced pass it replays, on its own instances, exactly the calls
// the engine made for that frame — the same inputs, and the Mark/Push
// events the frame's Result.Source implies — so the instances stay in
// the engine's state and do the engine's work. The replay runs outside
// the frame's span; its time is what core.self is reduced by.
//
// The replay is checked, not trusted: whenever the shadow gate's
// decision disagrees with the source the engine reported, the run
// fails (mismatches > 0).
type shadow struct {
	cfg    core.Config
	det    *imu.Detector
	lib    *video.KeyframeLibrary
	stats  *metrics.SessionStats
	streak int
	served bool // the engine has a last result

	mismatches int
}

func newShadow(cfg core.Config) (*shadow, error) {
	det, err := imu.NewDetector(cfg.IMU)
	if err != nil {
		return nil, err
	}
	lib, err := video.NewKeyframeLibrary(cfg.Diff, cfg.KeyframeCapacity)
	if err != nil {
		return nil, err
	}
	return &shadow{cfg: cfg, det: det, lib: lib, stats: metrics.NewSessionStats()}, nil
}

// replay mirrors Engine.process / processApprox for one served frame.
func (sh *shadow) replay(rec *recorder, f frameIn, res core.Result, vote *voteCapture) {
	s := rec.begin(opShCheckFrame, -1)
	frameFault := vision.CheckFrame(f.img, sh.cfg.FrameGuard)
	rec.end(s)

	s = rec.begin(opShCheckWindow, -1)
	winFault := imu.CheckWindow(f.win, sh.cfg.IMUGuard)
	rec.end(s)
	if frameFault != vision.FrameOK || winFault != imu.WindowOK {
		sh.mismatches++ // generated inputs are clean; the guards must agree
	}

	// A frame that refreshed the scene anchors re-marks the detector
	// and joins the keyframe library (Engine.refreshScene).
	refreshed := res.Source == metrics.SourceLocal || res.Source == metrics.SourcePeer || res.Source == metrics.SourceDNN
	revalidate := sh.cfg.MaxReuseStreak > 0 && sh.streak >= sh.cfg.MaxReuseStreak

	s = rec.begin(opShIMUGate, -1)
	sh.det.ObserveAll(f.win)
	imuServed := false
	if !revalidate && sh.served {
		imuServed = sh.det.AllowReuse()
	}
	if refreshed {
		sh.det.Mark()
	}
	rec.end(s)
	if imuServed != (res.Source == metrics.SourceIMU) {
		sh.mismatches++
	}

	if !imuServed && !revalidate && sh.lib.Len() > 0 {
		s = rec.begin(opShVideoMatch, -1)
		_, ok := sh.lib.Match(f.img)
		rec.end(s)
		if ok != (res.Source == metrics.SourceVideo) {
			sh.mismatches++
		}
	}

	if refreshed && !revalidate {
		// The engine looked up the store and voted; replay the vote on
		// the neighbours and label resolutions the store wrapper saw.
		s = rec.begin(opShVote, -1)
		verdict, _ := lsh.Vote(vote.ns, vote.labelOf, sh.cfg.Vote)
		rec.end(s)
		if verdict.Accepted != (res.Source == metrics.SourceLocal) {
			sh.mismatches++
		}
	}

	if refreshed {
		s = rec.begin(opShVideoPush, -1)
		sh.lib.Push(f.img, res.Label, res.Confidence)
		rec.end(s)
	}

	s = rec.begin(opShObserve, -1)
	sh.stats.ObserveFrame(res.Source, res.Latency, res.EnergyMJ, res.Label == f.truth)
	rec.end(s)

	sh.served = true
	if res.Source == metrics.SourceDNN {
		sh.streak = 0
	} else {
		sh.streak++
	}
}
