package memo

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// get is Get with a build that returns the key's string, counting runs.
func get(t *testing.T, c *Cache[int, string], key int, builds *int) (string, bool) {
	t.Helper()
	v, hit, err := c.Get(key, func() (string, error) {
		*builds++
		return fmt.Sprint(key), nil
	})
	if err != nil || v != fmt.Sprint(key) {
		t.Fatalf("Get(%d) = %q, %v", key, v, err)
	}
	return v, hit
}

func keys(c *Cache[int, string]) []int {
	var ks []int
	c.Each(func(k int, _ string) { ks = append(ks, k) })
	return ks
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[int, string](3)
	builds := 0
	for _, k := range []int{1, 2, 3} {
		if _, hit := get(t, &c, k, &builds); hit {
			t.Fatalf("first Get(%d) was a hit", k)
		}
	}
	if _, hit := get(t, &c, 1, &builds); !hit { // 1 is now the most recent
		t.Fatal("Get(1) missed with 1 resident")
	}
	get(t, &c, 4, &builds) // pushes out 2, the least recently used
	if got := keys(&c); !slices.Equal(got, []int{4, 1, 3}) {
		t.Fatalf("resident, most recent first: %v, want [4 1 3]", got)
	}
	if _, hit := get(t, &c, 2, &builds); hit { // back, at 3's expense
		t.Fatal("Get(2) hit after its eviction")
	}
	if got := keys(&c); !slices.Equal(got, []int{2, 4, 1}) {
		t.Fatalf("resident, most recent first: %v, want [2 4 1]", got)
	}
	if st := c.Stats(); st != (Stats{Hits: 1, Misses: 5, Evictions: 2, Len: 3}) || builds != 5 {
		t.Errorf("stats %+v after %d builds, want 1 hit, 5 misses and builds, 2 evictions, 3 held", st, builds)
	}
	if New[int, string](0).cap != 1 {
		t.Error("a bound below 1 must become 1")
	}
}

// TestOneBuildPerKeyUnderRacingGets: 64 goroutines ask for 4 keys at
// once; each key is built once, every caller gets its value, and all
// but the builders are counted as hits although the builds had not
// finished when they looked.
func TestOneBuildPerKeyUnderRacingGets(t *testing.T) {
	c := New[int, *int](8)
	var builds [4]atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]*int, 64)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := g % 4
			v, _, err := c.Get(k, func() (*int, error) {
				<-release
				builds[k].Add(1)
				v := k
				return &v, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[g] = v
		}()
	}
	// Every caller is registered, none answered: hits and misses are
	// counted at the lookup, before the wait.
	for c.Stats().Hits+c.Stats().Misses < 64 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times", k, n)
		}
	}
	for g, v := range got {
		if v == nil || *v != g%4 || v != got[g%4] {
			t.Fatalf("caller %d got %v, want the one value built for key %d", g, v, g%4)
		}
	}
	if st := c.Stats(); st.Misses != 4 || st.Hits != 60 || st.Len != 4 {
		t.Errorf("stats %+v, want 4 misses, 60 hits, 4 held", st)
	}
}

// TestFailedBuildIsNotKept: the error goes to the caller that ran the
// build and nowhere else — not to the next Get, and not to a Get that
// was waiting on the failing build, which runs its own.
func TestFailedBuildIsNotKept(t *testing.T) {
	c := New[string, int](2)
	boom := errors.New("boom")
	if _, hit, err := c.Get("k", func() (int, error) { return 7, boom }); err != boom || hit {
		t.Fatalf("failing Get: hit %t, err %v", hit, err)
	}
	if st := c.Stats(); st.Len != 0 || st.Evictions != 0 {
		t.Fatalf("a failed build left %+v behind", st)
	}
	if v, hit, err := c.Get("k", func() (int, error) { return 8, nil }); v != 8 || hit || err != nil {
		t.Fatalf("Get after a failure = %d, hit %t, %v; want a fresh build of 8", v, hit, err)
	}
	// At the bound, a failed build pushes nothing out.
	if _, _, err := c.Get("j", func() (int, error) { return 6, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("x", func() (int, error) { return 0, boom }); err != boom {
		t.Fatal(err)
	}
	var held []string
	c.Each(func(k string, _ int) { held = append(held, k) })
	if st := c.Stats(); st.Len != 2 || st.Evictions != 0 || !slices.Equal(held, []string{"j", "k"}) {
		t.Fatalf("a failed build at the bound left %+v holding %v, want [j k] and no eviction", st, held)
	}

	entered, fail := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		_, _, err := c.Get("w", func() (int, error) {
			close(entered)
			<-fail
			return 0, boom
		})
		done <- err
	}()
	<-entered
	go func() {
		v, hit, err := c.Get("w", func() (int, error) { return 9, nil })
		if v != 9 || hit || err != nil {
			err = fmt.Errorf("waiter got %d, hit %t, %v; want its own build of 9", v, hit, err)
		}
		done <- err
	}()
	for c.Stats().Hits < 1 { // until the waiter has found the entry mid-build
		runtime.Gosched()
	}
	close(fail)
	if a, b := <-done, <-done; !(a == boom && b == nil || a == nil && b == boom) {
		t.Fatalf("builder and waiter returned %v and %v, want boom and nil", a, b)
	}
}

func TestPutIsNotAMiss(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "one")
	c.Put(2, "two")
	c.Put(1, "uno") // replaces, and makes 1 the most recent
	builds := 0
	v, hit, err := c.Get(1, func() (string, error) { builds++; return "", nil })
	if v != "uno" || !hit || err != nil || builds != 0 {
		t.Fatalf("Get after Put = %q, hit %t, %v, %d builds", v, hit, err, builds)
	}
	c.Put(3, "three") // at the bound: 2 goes
	if got := keys(&c); !slices.Equal(got, []int{3, 1}) {
		t.Fatalf("resident %v, want [3 1]", got)
	}
	if st := c.Stats(); st != (Stats{Hits: 1, Evictions: 1, Len: 2}) {
		t.Errorf("stats %+v, want one hit, one eviction and no miss", st)
	}
}

// TestHitAllocatesNothing: build is not stored, so a closure that
// captures its surroundings stays on the caller's stack.
func TestHitAllocatesNothing(t *testing.T) {
	c := New[[2]float64, []float64](4)
	key, scale := [2]float64{50, 141}, 3.0
	build := func() ([]float64, error) { return []float64{key[0] * scale, key[1] * scale}, nil }
	if _, _, err := c.Get(key, build); err != nil {
		t.Fatal(err)
	}
	var sum float64
	if n := testing.AllocsPerRun(100, func() {
		v, _, _ := c.Get(key, func() ([]float64, error) { return []float64{key[0] * scale, sum}, nil })
		sum += v[0]
	}); n != 0 {
		t.Errorf("a hit allocates %v times", n)
	}
}
