// Empty on purpose: a function declared without a body (addMulVVW in
// montgomery.go, supplied by math/big through go:linkname) only compiles in
// a package that has an assembly file.
