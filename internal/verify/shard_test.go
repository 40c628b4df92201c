package verify

import (
	"errors"
	"testing"

	"edgeauth/internal/shardmap"
)

func TestCheckMapSuccession(t *testing.T) {
	const epoch = 7
	cases := []struct {
		name             string
		prevEpoch, prevG uint64 // freshest verified (incarnation, map epoch)
		epoch, g         uint64 // the new map's (incarnation, map epoch)
		replay           bool
	}{
		{"first map", 0, 0, epoch, 1, false},
		{"same generation", epoch, 3, epoch, 3, false},
		{"newer generation", epoch, 3, epoch, 4, false},
		{"older generation", epoch, 3, epoch, 2, true},
		{"map epoch 0", epoch, 1, epoch, 0, true},
		{"new incarnation restarts the chain", epoch, 3, epoch + 1, 1, false},
	}
	for _, c := range cases {
		m := &shardmap.Map{Epoch: c.epoch, MapEpoch: c.g}
		err := CheckMapSuccession(c.prevEpoch, c.prevG, m)
		if got := errors.Is(err, ErrMapReplay); got != c.replay {
			t.Errorf("%s: err = %v, want replay %v", c.name, err, c.replay)
		}
	}
}
