package graph

// RandomBatch exposes the random delta-batch generator of
// TestApplyDeltasMatchesOracle to the external test package.
var RandomBatch = randomBatch

// UnsortedGraph exposes unsortedGraph likewise.
var UnsortedGraph = unsortedGraph
