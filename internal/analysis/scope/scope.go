// Package scope centralizes which packages the rcvet analyzers police.
// The determinism contract (LINTS.md) covers the simulation tree under
// ramcloud/internal/: everything a figure's byte-identical rendering
// depends on. The cmd/ binaries and examples/ report wall-clock numbers
// by design and are out of scope, as is the analysis tooling itself.
package scope

import "strings"

const internalPrefix = "ramcloud/internal/"

// Deterministic reports whether pkgPath is part of the simulation tree
// whose behaviour must be a pure function of the scenario and seed.
func Deterministic(pkgPath string) bool {
	if !strings.HasPrefix(pkgPath, internalPrefix) {
		return false
	}
	// The analyzers and their fixtures are host-side tooling.
	if strings.HasPrefix(pkgPath, internalPrefix+"analysis") {
		return false
	}
	// The real-transport stack (transport's TCP backend, the realnode
	// hosts behind cmd/rccoord, rcserver and rcclient) legitimately uses
	// wall-clock time, bare goroutines and OS scheduling: it exists to
	// run the protocol on real sockets, not to render figures. Exempting
	// the packages here, by scope, keeps their sources free of
	// //rcvet:allow spam and keeps the exemption auditable in one place.
	if strings.HasPrefix(pkgPath, internalPrefix+"transport") ||
		strings.HasPrefix(pkgPath, internalPrefix+"realnode") {
		return false
	}
	return true
}

// singleThreaded lists the packages making up the discrete-event
// simulator and the protocol logic running inside it. A bare go
// statement there bypasses the engine's cooperative scheduler: the OS
// decides interleaving, and determinism is lost. core's worker-pool
// runner is the one spawning site; it carries an //rcvet:allow goroutine
// justification.
var singleThreaded = map[string]bool{
	"sim":         true,
	"simnet":      true,
	"server":      true,
	"coordinator": true,
	"client":      true,
	"core":        true,
}

// SingleThreaded reports whether bare go statements are forbidden in
// pkgPath.
func SingleThreaded(pkgPath string) bool {
	rest, ok := strings.CutPrefix(pkgPath, internalPrefix)
	if !ok {
		return false
	}
	return singleThreaded[rest]
}

// TestFile reports whether filename is a _test.go file. Tests drive the
// simulator from ordinary goroutines (the race hammers depend on it)
// and may measure wall clock, so the behavioural analyzers skip them.
func TestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}
