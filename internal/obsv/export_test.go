package obsv

// Names the external tests (package obsv_test) use.
type Family = family

var NewServer = newServer
