package obsv

import "net/http"

// Names the external tests (package obsv_test) use.
type Family = family

var (
	NewServer         = newServer
	PublisherState    = (*Publisher).state
	PublisherCensuses = (*Publisher).censuses
)

// Handler returns the server's mux (for tests via httptest).
func (s *server) Handler() http.Handler { return s.mux }
