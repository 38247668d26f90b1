// Package sealedbottle is a from-scratch Go reproduction of "Message in a
// Sealed Bottle: Privacy Preserving Friending in Social Networks" (Zhang &
// Li, ICDCS 2013): symmetric-cryptography-only private profile matching and
// secure channel establishment for decentralized mobile social networks.
//
// The root package is the public SDK (sealedbottle.go): one canonical
// context-first Backend interface — Submit/SubmitBatch/Sweep/Reply/
// ReplyBatch/Fetch/FetchBatch/Remove/Stats/Close — implemented by the
// in-process Rack, the wire Courier and the cluster Ring alike, plus the
// framed server, the candidate-side Sweeper, and typed error sentinels that
// survive TCP via one-byte wire codes. External programs embed a rack or
// dial a cluster through this surface alone; api_golden_test.go guards it
// against accidental breaking changes.
//
// The implementation lives under internal/ (core mechanism, crypto
// substrate, hexagonal-lattice location hashing, bottle-rack rendezvous
// broker with its write-ahead-log durability substrate in
// internal/broker/wal and its multiplexed wire transport,
// the courier client SDK and multi-rack cluster ring in internal/client,
// MSN simulator, dataset generator, asymmetric baselines, adversary
// harness, cost model and experiment generators), with runnable entry
// points under cmd/ and examples/. The repository-level benchmarks in
// bench_test.go regenerate every table and figure of the paper's evaluation
// and track the broker's, transport's and durability subsystem's
// throughput. See README.md for the package map and quickstart,
// docs/PROTOCOL.md for the complete wire and on-disk format specification
// (including the error-code table and cancellation semantics), and
// docs/ARCHITECTURE.md for the layer map and design rationale.
package sealedbottle
