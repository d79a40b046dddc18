// Package privconsensus is a Go implementation of the private consensus
// protocol of Xiang, Wang, Wang and Li, "Achieving Consensus in
// Privacy-Preserving Decentralized Learning" (ICDCS 2020).
//
// The protocol lets a set of mutually untrusting users label public data
// for an aggregator by majority vote, revealing nothing but the label with
// the highest noisy vote — and only when that vote clears a consensus
// threshold. It composes additive secret sharing across two non-colluding
// servers, Paillier homomorphic aggregation, a Blind-and-Permute
// sub-protocol that hides class identities, DGK secure comparisons for the
// arg-max and threshold checks, and distributed Gaussian noise that makes
// the released label differentially private (Sparse Vector Technique +
// Report Noisy Maximum, accounted in Rényi DP).
//
// Three layers of API are exposed:
//
//   - Engine runs the full cryptographic protocol (Alg. 5) on the
//     deployment's two servers (cmd/server), started on loopback per call.
//   - Accountant / PlanNoise do the Rényi-DP arithmetic of Theorem 5.
//   - RunPATE simulates the semi-supervised knowledge-transfer pipeline
//     (teachers, consensus labeling, student training) on synthetic data:
//     one K-class decision per query for mnist and svhn, one two-class
//     decision per attribute for celeba. VoteType and SelfTrain apply to
//     the multiclass task; the noisy-argmax baseline draws only Sigma2, so
//     its ε does not depend on Sigma1.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package privconsensus
