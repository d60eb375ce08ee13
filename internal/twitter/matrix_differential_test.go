package twitter_test

import (
	"testing"
)

// TestExecMethodDifferential runs the profile sweep on a denser graph
// than the other sweeps, where Tuned's own density gate — without the
// test seam — sends some hops to the spmat kernels and others to the
// navigational paths. Every column must still return Faithful's
// results byte for byte on both engines.
func TestExecMethodDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential test builds two databases")
	}
	cfg := smallCfg()
	cfg.Users = 600
	cfg.AvgFollowees = 10
	cfg.Hashtags = 40
	cfg.MentionsPer = 1.0
	neo, spark, _ := buildBoth(t, cfg)
	for _, s := range []profileStore{neo, spark} {
		stats := checkProfiles(t, s)
		if st := stats["tuned"]; st != nil && (st.matrix == 0 || st.nav == 0) {
			t.Errorf("%s: tuned ran %d matrix and %d nav hops, want both > 0", s.Name(), st.matrix, st.nav)
		}
	}
}
