package obs

import (
	"runtime"
	"strconv"
)

// SetBuildInfo registers the privconsensus_build_info gauge on r (nil for
// Default): always 1, with the build and configuration identity carried as
// labels, the Prometheus idiom for joining identity onto other series.
func SetBuildInfo(r *Registry, wire, parallelism int) {
	if r == nil {
		r = Default
	}
	r.Gauge("privconsensus_build_info",
		"Always 1; labels carry the build and configuration identity.",
		L("goversion", runtime.Version()),
		L("wire", strconv.Itoa(wire)),
		L("parallelism", strconv.Itoa(parallelism))).Set(1)
}
