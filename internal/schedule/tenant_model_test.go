package schedule

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"schedroute/internal/errkind"
	"schedroute/internal/topology"
)

// modelTenant is what the reference model remembers of a standing
// tenant: what it was admitted with, which must never change.
type modelTenant struct {
	id      string
	prio    int
	omega   []byte
	reserve []float64
}

// tenantModel is the reference a TenantSet is checked against: the
// standing tenants in admission order, nothing else.
type tenantModel []modelTenant

func (m tenantModel) find(id string) int {
	for i, mt := range m {
		if mt.id == id {
			return i
		}
	}
	return -1
}

func (m *tenantModel) remove(id string) bool {
	i := m.find(id)
	if i >= 0 {
		*m = append((*m)[:i:i], (*m)[i+1:]...)
	}
	return i >= 0
}

// snapshot is the set as a caller sees it: IDs, Ω bytes and reserve
// vectors, in Tenants() order.
func (m tenantModel) snapshot(t *testing.T, ts *TenantSet) tenantModel {
	var out tenantModel
	for _, st := range ts.Tenants() {
		out = append(out, modelTenant{st.Tenant.ID, st.Tenant.Priority, omegaBytes(t, st.Base.Omega), st.Reserve})
	}
	return out
}

// check holds the set to the model: the same tenants in the same order,
// each with the Ω and reservation it was admitted with, Σ reservations
// ≤ 1 on every link, and no trace of an ID the model does not hold.
func (m tenantModel) check(t *testing.T, ts *TenantSet, pool []string) error {
	got := m.snapshot(t, ts)
	if len(got) != len(m) {
		return fmt.Errorf("set holds %d tenants, model %d", len(got), len(m))
	}
	sum := make([]float64, ts.nl)
	for i, mt := range m {
		g := got[i]
		if g.id != mt.id || !bytes.Equal(g.omega, mt.omega) || !reflect.DeepEqual(g.reserve, mt.reserve) {
			return fmt.Errorf("tenant %d is %q, model %q (Ω equal %t, reserve equal %t)",
				i, g.id, mt.id, bytes.Equal(g.omega, mt.omega), reflect.DeepEqual(g.reserve, mt.reserve))
		}
		for j, r := range g.reserve {
			sum[j] += r
		}
	}
	for j, s := range sum {
		if s > 1+1e-9 {
			return fmt.Errorf("link %d reserved %g > 1", j, s)
		}
	}
	for _, id := range pool {
		if m.find(id) < 0 && ts.Lookup(id) != nil {
			return fmt.Errorf("%q is not standing but Lookup finds it", id)
		}
	}
	return nil
}

// TestTenantSetMatchesModel drives TenantSet with seeded random walks —
// admissions (fresh IDs, duplicates, IDs evicted or released earlier),
// releases, and RepairTenant what-ifs on standing and absent IDs — and
// after every step holds it to tenantModel. A rejected admission must
// leave the set exactly as it found it; an eviction may only take
// strictly lower-priority tenants; a what-if must move nothing.
func TestTenantSetMatchesModel(t *testing.T) {
	top := threeCube(t)
	pool := []string{"a", "b", "c", "d", "e"}
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ts, m := NewTenantSet(top), tenantModel{}
			for step := 0; step < 60; step++ {
				i := rng.Intn(len(pool))
				id := pool[i]
				var op string
				switch r := rng.Intn(20); {
				case r < 10:
					for k := 0; r < 8 && k < len(pool); k++ { // mostly an ID not standing
						if free := pool[(i+k)%len(pool)]; m.find(free) < 0 {
							id = free
							break
						}
					}
					// One face of the cube, so candidates contend for its links.
					src := topology.NodeID(rng.Intn(4))
					dst := src ^ topology.NodeID(1+rng.Intn(3))
					cand := pairTenant(t, top, id, src, dst, []int{640, 1280, 2880}[rng.Intn(3)], []float64{50, 100}[rng.Intn(2)])
					cand.Priority, cand.RateGuarantee = rng.Intn(3), []float64{0, 0.5, 1}[rng.Intn(3)]
					op = fmt.Sprintf("admit %s %d→%d prio %d", id, src, dst, cand.Priority)
					before := m.snapshot(t, ts)
					rep, err := ts.Admit(context.Background(), cand, nil)
					switch {
					case m.find(id) >= 0:
						if !errors.Is(err, errkind.ErrBadInput) {
							t.Fatalf("seed %d step %d (%s): duplicate admission returned %v, want bad_input", seed, step, op, err)
						}
					case err != nil:
						t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
					case !rep.Admitted:
						if after := m.snapshot(t, ts); !reflect.DeepEqual(after, before) || len(rep.Evicted) != 0 {
							t.Fatalf("seed %d step %d (%s): a rejection changed the set (evicted %v)", seed, step, op, rep.Evicted)
						}
					default:
						for _, ev := range rep.Evicted {
							if i := m.find(ev); i < 0 || m[i].prio >= cand.Priority {
								t.Fatalf("seed %d step %d (%s): evicted %q, not a standing lower-priority tenant", seed, step, op, ev)
							}
							m.remove(ev)
						}
						st := ts.Lookup(id)
						if st == nil || st.Report != rep || st.Base != rep.Result {
							t.Fatalf("seed %d step %d (%s): admitted but its standing is not its report", seed, step, op)
						}
						m = append(m, modelTenant{id, cand.Priority, omegaBytes(t, rep.Result.Omega), append([]float64(nil), st.Reserve...)})
					}
				case r < 13:
					op = "release " + id
					if got, want := ts.Release(id), m.remove(id); got != want {
						t.Fatalf("seed %d step %d (%s): Release reported %t, model %t", seed, step, op, got, want)
					}
				default:
					l := topology.LinkID(rng.Intn(top.Links()))
					op = fmt.Sprintf("what-if %s link %d", id, l)
					fs := topology.NewFaultSet()
					fs.FailLink(l)
					rep, err := ts.RepairTenant(context.Background(), id, fs, nil)
					if m.find(id) >= 0 && (err != nil || rep.Report == nil) {
						t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
					}
					if m.find(id) < 0 && !errors.Is(err, errkind.ErrNotFound) {
						t.Fatalf("seed %d step %d (%s): absent ID returned %v, want not_found", seed, step, op, err)
					}
				}
				if err := m.check(t, ts, pool); err != nil {
					t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
				}
			}
		})
	}
}
