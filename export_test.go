package adept2

import "adept2/internal/engine"

// EngineOf is the engine under a System, for the tests that build a
// capture from it or read it beside the façade. No production code reaches
// an engine through a System: a System changes only through Submit.
func EngineOf(s *System) *engine.Engine { return s.eng }
