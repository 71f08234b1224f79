package engine

// NewLazyDFAForTest exposes the lazy-DFA constructor to the external test
// package, so differential tests can build cache-starved engines with tiny
// caps and a chosen fallback.
var NewLazyDFAForTest = newLazyDFA
