package storage_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/bbuf"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/xrand"
)

// intrepid is the shared Intrepid storage hardware with a backend's block
// size and client stream rate on top.
func intrepid(block int64, stream float64) storage.Config {
	return storage.Config{
		BlockSize:      block,
		NumServers:     128,
		ServerBW:       140e6,
		ClientStreamBW: stream,
		NoiseProb:      0.0015,
	}
}

// mechBad are mechanism settings storage.New must reject on every backend.
var mechBad = map[string]func(*storage.Config){
	"BlockSize=0":  func(c *storage.Config) { c.BlockSize = 0 },
	"NumServers=0": func(c *storage.Config) { c.NumServers = 0 },
	"ServerBW=0":   func(c *storage.Config) { c.ServerBW = 0 },
}

func newMachine() *machine.Machine {
	return machine.MustNew(sim.NewKernel(), xrand.New(1), machine.Intrepid(64))
}

func mountBBuf(m *machine.Machine, mod func(*bbuf.Config)) error {
	cfg := bbuf.DefaultConfig()
	mod(&cfg)
	_, err := bbuf.New(m, cfg)
	return err
}

// TestBackends pins, for every backend composed over the core, its default
// configuration, the mechanism validation it inherits from storage.New, and
// the backend-branded namespace errors.
func TestBackends(t *testing.T) {
	cases := []struct {
		name      string
		got, want any
		mount     func(m *machine.Machine, mod func(*storage.Config)) (fsys.System, error)
		bad       map[string]func(*machine.Machine) error // backend-only rejections
	}{
		{
			name: "gpfs",
			got:  storage.DefaultGPFS(),
			want: storage.GPFSConfig{Config: intrepid(4<<20, 50e6), WriteBehind: true},
			mount: func(m *machine.Machine, mod func(*storage.Config)) (fsys.System, error) {
				cfg := storage.DefaultGPFS()
				mod(&cfg.Config)
				return storage.NewGPFS(m, cfg)
			},
		},
		{
			name: "pvfs",
			got:  storage.DefaultPVFS(),
			want: intrepid(64<<10, 35e6),
			mount: func(m *machine.Machine, mod func(*storage.Config)) (fsys.System, error) {
				cfg := storage.DefaultPVFS()
				mod(&cfg)
				return storage.NewPVFS(m, cfg)
			},
		},
		{
			name: "bbuf",
			got:  bbuf.DefaultConfig(),
			want: bbuf.Config{
				Config:       intrepid(4<<20, 300e6),
				BufferPerION: 2 << 30, DrainBW: 250e6,
			},
			mount: func(m *machine.Machine, mod func(*storage.Config)) (fsys.System, error) {
				cfg := bbuf.DefaultConfig()
				mod(&cfg.Config)
				return bbuf.New(m, cfg)
			},
			bad: map[string]func(*machine.Machine) error{
				"BufferPerION<0": func(m *machine.Machine) error {
					return mountBBuf(m, func(c *bbuf.Config) { c.BufferPerION = -1 })
				},
				"FleetNodes<0": func(m *machine.Machine) error {
					return mountBBuf(m, func(c *bbuf.Config) { c.FleetNodes = -1 })
				},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !reflect.DeepEqual(tc.got, tc.want) {
				t.Errorf("DefaultConfig() = %+v\nwant %+v", tc.got, tc.want)
			}
			for what, mod := range mechBad {
				if _, err := tc.mount(newMachine(), mod); err == nil {
					t.Errorf("New accepted %s", what)
				}
			}
			for what, mount := range tc.bad {
				if err := mount(newMachine()); err == nil {
					t.Errorf("New accepted %s", what)
				}
			}

			m := newMachine()
			fs, err := tc.mount(m, func(*storage.Config) {})
			if err != nil {
				t.Fatal(err)
			}
			m.K.Go("open", func(p *sim.Proc) {
				_, err := fs.Open(p, 0, "missing")
				if !errors.Is(err, fsys.ErrNotExist) {
					t.Errorf("Open(missing) = %v, want fsys.ErrNotExist", err)
				}
				if want := tc.name + ": file does not exist: missing"; err == nil || err.Error() != want {
					t.Errorf("Open(missing) message %q, want %q", err, want)
				}
			})
			if err := m.K.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
