package pacor

import (
	"testing"
)

func TestStageTimesRecorded(t *testing.T) {
	d := testDesign(t)
	res, err := Route(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"clustering", "lmrouting", "mstrouting", "escape", "detour"} {
		if _, ok := res.StageTimes[stage]; !ok {
			t.Errorf("stage %q missing from StageTimes", stage)
		}
	}
	var sum int64
	for _, d := range res.StageTimes {
		if d < 0 {
			t.Error("negative stage time")
		}
		sum += d.Nanoseconds()
	}
	if sum > res.Runtime.Nanoseconds() {
		t.Errorf("stage times %v exceed total runtime %v", sum, res.Runtime)
	}
}
