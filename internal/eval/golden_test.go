package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// parentGolden is the SHA-256 of every simulated-clock experiment's
// rendered table at tinyScale, recorded by running this file at the
// commit before the per-benchmark config structs were folded into one
// device builder. A refactor of the harness must reproduce each table to
// the byte; re-record a digest only by running this file at the commit
// before a change that means to move it, never by pasting the new hash.
//
// The wall-clock experiments (E20, E21, E22) are not pinned: their
// tables carry elapsed time.
//
// E7 is pinned since it lost its lookup-time column. Its digest was
// recorded from the new table once its recall@1 and mean-candidates
// columns had matched the previous table's byte for byte at tinyScale,
// smallScale and DefaultScale.
//
// Every digest was re-recorded on the tree that made frames 8-bit luma,
// which moved every rendered frame and so every simulated table.
//
// E25 was re-recorded on the tree that deleted the peers' coverage
// digests: with no prefilter every query goes to every admitted peer, so
// its bytes/frame column rose (102.4-102.5 to 114.6) and its note
// lost "delta digests"; every other cell matched the parent's table.
var parentGolden = map[string]string{
	"E1":  "7cf46084a15cd4b3383f39a037e6a41cbb1c995ba43ed213953060937dcecd24",
	"E2":  "cf7ca93c6bb09b84d54aaa5359415f1cb87876278d3b83a43bd5856b48196a21",
	"E3":  "ed5f439990c6f164e157837331ae728d32b8efa16e062671da55040520ab5afd",
	"E4":  "7f23212a02e8ba3b8646f519a88b67fc6bfe79908631945c3c5213ec4cb0b8cb",
	"E5":  "42677e2eba2becb36890235f0258e8f16cfbb574799b0f39e2000b43d8c6e2ef",
	"E6":  "ae44abe22a09809d435445deefcfdd9b6697eecc3ce3e77844490219e4fe3524",
	"E7":  "ff3698e70e0b4baebdcebb8f17361cf40dad35757293fbe5bfdfc3949527949d",
	"E8":  "2dff83d789e1b623f7e09ea0e712388af47c3c9a69d8ca9fcd201f2bd1375dfa",
	"E10": "a03d16d5583f4dfde9c7b2f41b456cc5cd590ffcb32bb471ac824365f448e230",
	"E11": "5494cfdb18fa0763e8f6eb2f9b593ad1c6add30f67e2d05bb61dfd3bef14fd34",
	"E12": "0b31ec27b752c8aaf553ce5b6929fbb7c92779b20f5f0dc0117f557dfe8cd870",
	"E14": "79480743928a568b3a3d3cf0e4ed92d2b140aff476421d49ad6e5c595e42ad95",
	"E15": "67f600171f73fa8b37fc99f7d6c77e8bd131af9a5a0122a28d2fbe936b108f69",
	"E17": "db825b386c50f711b19feff0de4a6ab8d2418ac637e18533b3b4d7d7f2a7eae0",
	"E18": "186c6a6ec15db150e5625bc2c845849d974e591aa2d962a2b03a40a98d36fc0f",
	"E19": "a42418a6af7cfc7b1aeadc138ec9ababce09c9709763315f30d9c16e3ffced63",
	"E23": "f35e83a2f7cdcc41cdae131667e2bfb6726e3cd45e40937d28cdf3284a7b6b71",
	"E25": "91b8c37f01a7360515157463bff3e58e10baaa72be53a55dfd3d7e8de2c137fd",
}

// parentGoldenE18Small is E18's table at smallScale, recorded the same
// way. At 300 frames some frames overrun the next one's arrival, so the
// phase a frame is windowed into depends on the clock it starts at, not
// only on its arrival offset; tinyScale never shows the difference.
const parentGoldenE18Small = "8bd9e49dc6a373f486423143ed91cb1e364e692d0dfb23fa8af8b5dcb07ef9eb"

func TestSimulatedReportsMatchParentGolden(t *testing.T) {
	check := func(id string, r Report, want string) {
		t.Helper()
		sum := sha256.Sum256([]byte(r.String()))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: table digest %s, want %q\n%s", id, got, want, r)
		}
	}
	for _, e := range All() {
		if e.WallClock {
			continue
		}
		r, err := e.Run(tinyScale())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		check(e.ID, r, parentGolden[e.ID])
	}
	r, err := E18ChaosResilience(smallScale())
	if err != nil {
		t.Fatal(err)
	}
	check("E18 at smallScale", r, parentGoldenE18Small)
}
