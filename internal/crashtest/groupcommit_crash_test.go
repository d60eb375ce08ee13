package crashtest

import (
	"fmt"
	"testing"

	"twigraph/internal/neodb"
	"twigraph/internal/vfs"
)

// Group-commit import crash tests. With Config.ImportGroupCommit set the
// batch importer redo-logs every pipeline batch as one WAL frame and
// fsyncs it before applying, while the store files stay volatile until
// the final checkpoint. The durability contract is therefore sharper
// than the classic import's empty/complete/flagged trichotomy: a crash
// at any WAL-sync boundary must recover to an exact prefix of whole
// batches — never a half-applied batch — and that prefix must pass the
// integrity check.

// gcStoreFiles are the record stores whose durable growth marks the
// start of the final checkpoint (before it, only the WAL and catalog
// are synced).
var gcStoreFiles = []string{
	"/db/nodes.store", "/db/rels.store", "/db/props.store", "/db/strings.store", "/db/groups.store",
}

// TestImportGroupCommitCrashRecoversBatchPrefix crashes a group-commit
// import after every fsync boundary in turn. writeTinyCSVDir with
// batchRows=2 produces a fixed frame sequence — users [2,1], tweets [2],
// hashtags [1], dense marks, follows [2,2], posts [2], mentions [1],
// tags [1] — so the set of legal recovered (nodes, edges) states is
// exactly the cumulative batch prefixes below. While the crash lands
// before the final checkpoint begins, recovery must hit one of them
// with a clean integrity report; once store syncs are in flight a torn
// checkpoint may additionally surface as a *detected* violation.
func TestImportGroupCommitCrashRecoversBatchPrefix(t *testing.T) {
	csvDir := writeTinyCSVDir(t)
	const batchRows = 2
	type state struct{ nodes, edges uint64 }
	validPrefix := map[state]bool{
		{0, 0}: true,                             // no frame durable
		{2, 0}: true, {3, 0}: true, {5, 0}: true, // node batches
		{6, 0}: true,                                                         // all nodes (and possibly the dense frame)
		{6, 2}: true, {6, 4}: true, {6, 6}: true, {6, 7}: true, {6, 8}: true, // edge batches
	}

	completed := false
	for n := uint64(1); n <= 200 && !completed; n++ {
		t.Run(fmt.Sprintf("sync%03d", n), func(t *testing.T) {
			fs := vfs.NewFaultFS()
			cfg := neodb.Config{CachePages: 256, FS: fs, ImportGroupCommit: true, ImportWorkers: 2}
			db, err := neodb.Open("/db", cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Durable store sizes before any import work: growth past
			// these marks means the final checkpoint has started.
			durableAtOpen := make(map[string]int, len(gcStoreFiles))
			for _, f := range gcStoreFiles {
				durableAtOpen[f] = fs.DurableLen(f)
			}
			fs.CrashAfter(vfs.OpSync, n)
			imp := db.NewImporter(batchRows, nil)
			nodes, edges := neodb.ImportDirLayout(csvDir)
			_, runErr := imp.Run(nodes, edges)
			if runErr == nil {
				// The import finished before the crash point — possibly
				// with the halt landing exactly after its final fsync, in
				// which case success is only honest if the whole dataset
				// is already durable. The post-crash check below verifies
				// that with the full-count expectation.
				completed = true
			}
			checkpointStarted := false
			for _, f := range gcStoreFiles {
				if fs.DurableLen(f) != durableAtOpen[f] {
					checkpointStarted = true
				}
			}
			fs.Crash()
			db2, err := neodb.Open("/db", cfg)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer db2.Close()
			r := db2.CheckIntegrity()
			got := state{db2.NodeCount(), db2.RelCount()}
			switch {
			case runErr == nil:
				if got != (state{6, 8}) || !r.OK() {
					t.Errorf("import reported success but crash recovery sees %d nodes / %d edges (integrity ok=%v), want 6/8 clean", got.nodes, got.edges, r.OK())
				}
			case !checkpointStarted:
				// Pure WAL-boundary crash: recovery must be an exact
				// batch prefix and clean.
				if !r.OK() {
					t.Errorf("mid-import crash recovered with violations:\n%s", r)
				}
				if !validPrefix[got] {
					t.Errorf("recovered %d nodes / %d edges: not a whole-batch prefix", got.nodes, got.edges)
				}
			case validPrefix[got] && r.OK():
				// Crash during the checkpoint with replay covering it.
			case !r.OK():
				// Torn checkpoint, detected. Honest.
			default:
				t.Errorf("silent torn checkpoint: %d nodes, %d edges, integrity clean", got.nodes, got.edges)
			}
		})
	}
	if !completed {
		t.Fatal("import never completed within 200 sync boundaries")
	}
}

// TestImportGroupCommitCompletes runs a group-commit import with no
// fault, checks the frame accounting (one group commit per batch), and
// verifies that a crash after completion loses nothing — the final
// checkpoint plus truncated WAL carry the whole dataset.
func TestImportGroupCommitCompletes(t *testing.T) {
	csvDir := writeTinyCSVDir(t)
	fs := vfs.NewFaultFS()
	cfg := neodb.Config{CachePages: 256, FS: fs, ImportGroupCommit: true, ImportWorkers: 2}
	db, err := neodb.Open("/db", cfg)
	if err != nil {
		t.Fatal(err)
	}
	imp := db.NewImporter(2, nil)
	nodes, edges := neodb.ImportDirLayout(csvDir)
	rep, err := imp.Run(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 6 || rep.Edges != 8 {
		t.Fatalf("imported %d nodes / %d edges, want 6/8", rep.Nodes, rep.Edges)
	}
	// At batchRows=2 the fixture logs 2+1+1 node frames, 1 dense frame,
	// and 2+1+1+1 edge frames: 10 group commits.
	if got := db.Obs().Counter(neodb.CWALGroupCommits).Load(); got != 10 {
		t.Errorf("wal_group_commits = %d, want 10", got)
	}
	fs.Crash()
	db2, err := neodb.Open("/db", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got, want := db2.NodeCount(), uint64(6); got != want {
		t.Errorf("nodes after crash = %d, want %d", got, want)
	}
	if got, want := db2.RelCount(), uint64(8); got != want {
		t.Errorf("rels after crash = %d, want %d", got, want)
	}
	if r := db2.CheckIntegrity(); !r.OK() {
		t.Errorf("violations after post-completion crash:\n%s", r)
	}
}
