package core

// FFConfigs exposes the differential matrix to the external test
// package, so the batch-loop suites there run the same configurations
// as the fast-forward and snapshot suites here.
var FFConfigs = ffConfigs
