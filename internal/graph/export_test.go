package graph

// GenSchema is genSchema for the external test package, which can import
// internal/sim.
var GenSchema = genSchema
