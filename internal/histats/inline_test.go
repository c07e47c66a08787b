package histats

import (
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// inlinedSites are the observer sites that must cost no call: every
// site function of this package, the flight recorder's response site,
// and the steppoint site at every protocol CAS of the table. The E24/E25
// overhead gates price the disabled ones (Observing, Step, Observe) as
// one atomic load and a branch each.
var inlinedSites = map[string][]string{
	"./internal/histats": {"Observing", "Inc", "Add", "Observe", "Step", "Invoke"},
	"./internal/hirec":   {"OpEnd"},
	"./internal/hihash":  {"stepAt"},
}

// TestSitesInline builds the instrumented packages with the compiler's
// inlining report and requires "can inline" for every site function. A
// site that outgrows the inliner's budget puts a call on every
// operation that passes it, which is what the overhead gates exist to
// catch, but they catch it only when the extra call happens to cross
// their bound.
func TestSitesInline(t *testing.T) {
	args := []string{"build", "-gcflags=-m=2"}
	for pkg := range inlinedSites {
		args = append(args, pkg)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	for pkg, funcs := range inlinedSites {
		dir := strings.TrimPrefix(pkg, "./") + "/"
		for _, fn := range funcs {
			verdict := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(dir) + `[^/\s]+\.go:\d+:\d+: (can|cannot) inline ` + fn + `\b.*$`)
			m := verdict.FindSubmatch(out)
			switch {
			case m == nil:
				t.Errorf("%s: no inlining verdict for %s in the compiler's report", pkg, fn)
			case string(m[1]) != "can":
				t.Errorf("%s", m[0])
			}
		}
	}
}
