//go:build race

package core_test

// raceDetector reports that the test binary is race-instrumented.
const raceDetector = true
