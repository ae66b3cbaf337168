package main

import "testing"

// A tiny in-test run of the peos suite: the JSON writer's fields must
// be populated and positive, and the cluster path must complete — the
// same guarantee the CI bench-smoke job checks from the outside.
func TestPEOSSuiteSmoke(t *testing.T) {
	rep, err := runPEOSSuite(40, 8, 4, []int{512}, []int{2}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cases) != 1 {
		t.Fatalf("want 1 case, got %d", len(rep.Cases))
	}
	c := rep.Cases[0]
	if c.R != 2 || c.N != 40 || c.NR != 4 || c.KeyBits != 512 {
		t.Fatalf("case parameters %+v", c)
	}
	if rep.GoMaxProcs < 1 || rep.NumCPU < 1 {
		t.Fatalf("core counts not recorded: go_max_procs %d, num_cpu %d", rep.GoMaxProcs, rep.NumCPU)
	}
	if c.InProcessSeconds <= 0 || c.ClusterSeconds <= 0 {
		t.Fatalf("timings not populated: %+v", c)
	}
	if c.UserSentBytes <= 0 || c.ShufflerSentBytes <= 0 || c.ServerRecvBytes <= 0 {
		t.Fatalf("per-party bytes not populated: %+v", c)
	}
	// Users send one 8-byte share per shuffler plus one ciphertext
	// (CiphertextBytes = keyBits/8 = 64); the exact total is pinned by
	// the protocol's meter accounting.
	if want := int64(40 * (8 + 64)); c.UserSentBytes != want {
		t.Fatalf("user bytes %d, want %d", c.UserSentBytes, want)
	}
	// The analyzer scale-out sweep: one row per requested shard count,
	// measured wall clock per row, coordinator window strictly smaller
	// once the tier is sharded.
	if len(rep.AnalyzerScaling) != 2 {
		t.Fatalf("want 2 scaling rows, got %d", len(rep.AnalyzerScaling))
	}
	one, two := rep.AnalyzerScaling[0], rep.AnalyzerScaling[1]
	if one.Analyzers != 1 || two.Analyzers != 2 {
		t.Fatalf("scaling rows %+v", rep.AnalyzerScaling)
	}
	if one.ClusterSeconds <= 0 || two.ClusterSeconds <= 0 {
		t.Fatalf("scaling timings not populated: %+v", rep.AnalyzerScaling)
	}
	if one.CoordinatorWindowWords != 44 || two.CoordinatorWindowWords != 22 {
		t.Fatalf("coordinator windows %d, %d", one.CoordinatorWindowWords, two.CoordinatorWindowWords)
	}
}
