package transport

// ReadResponseInto exposes the landing form of the response decoder to
// the external test package (fuzz_corrupt_test.go), which cannot live
// in-package: it seeds its corpora from faultnet, and faultnet imports
// transport.
var ReadResponseInto = readResponse
