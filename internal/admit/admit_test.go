package admit

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfsql/internal/obsv"
)

func TestShedPolicyQueueFull(t *testing.T) {
	obs := obsv.New()
	q := NewQueue[int](Options{Capacity: 2, Policy: Shed, Obs: obs})
	ctx := context.Background()
	if err := q.Submit(ctx, Ticket[int]{Item: 1}); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if err := q.Submit(ctx, Ticket[int]{Item: 2}); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	err := q.Submit(ctx, Ticket[int]{Item: 3})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("want ErrShed, got %v", err)
	}
	if got := ShedReason(err); got != ReasonQueueFull {
		t.Fatalf("reason = %q, want %q", got, ReasonQueueFull)
	}
	sub, adm, shed := q.Counts()
	if sub != 3 || adm != 2 || shed != 1 {
		t.Fatalf("counts = %d/%d/%d, want 3/2/1", sub, adm, shed)
	}
	if n := obs.M().Counter("admit.shed").Value(); n != 1 {
		t.Fatalf("admit.shed = %d, want 1", n)
	}
	if q.HighWater() != 2 {
		t.Fatalf("high water = %d, want 2", q.HighWater())
	}
}

func TestBlockPolicyBackpressure(t *testing.T) {
	q := NewQueue[int](Options{Capacity: 1, Policy: Block})
	ctx := context.Background()
	if err := q.Submit(ctx, Ticket[int]{Item: 1}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- q.Submit(ctx, Ticket[int]{Item: 2}) }()
	select {
	case err := <-done:
		t.Fatalf("blocked submit returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok := q.Take(); !ok {
		t.Fatal("take failed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unblocked submit: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("submit never unblocked after Take")
	}
}

func TestBlockPolicyContextCancel(t *testing.T) {
	q := NewQueue[int](Options{Capacity: 1, Policy: Block})
	if err := q.Submit(context.Background(), Ticket[int]{Item: 1}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- q.Submit(ctx, Ticket[int]{Item: 2}) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled submit never returned")
	}
}

func TestTimeoutWaitSheds(t *testing.T) {
	q := NewQueue[int](Options{Capacity: 1, Policy: TimeoutWait, Wait: 15 * time.Millisecond})
	ctx := context.Background()
	if err := q.Submit(ctx, Ticket[int]{Item: 1}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	start := time.Now()
	err := q.Submit(ctx, Ticket[int]{Item: 2})
	elapsed := time.Since(start)
	if got := ShedReason(err); got != ReasonWaitTimeout {
		t.Fatalf("reason = %q (err %v), want %q", got, err, ReasonWaitTimeout)
	}
	if elapsed < 10*time.Millisecond {
		t.Fatalf("shed too early: %v", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("shed too late: %v", elapsed)
	}
}

func TestTimeoutWaitAdmitsWhenSpaceFrees(t *testing.T) {
	q := NewQueue[int](Options{Capacity: 1, Policy: TimeoutWait, Wait: 500 * time.Millisecond})
	ctx := context.Background()
	if err := q.Submit(ctx, Ticket[int]{Item: 1}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		q.Take()
	}()
	if err := q.Submit(ctx, Ticket[int]{Item: 2}); err != nil {
		t.Fatalf("submit after space freed: %v", err)
	}
}

func TestDeadlineShedAtSubmit(t *testing.T) {
	var shedItems []any
	var shedReasons []string
	q := NewQueue[int](Options{
		Capacity: 4,
		OnShed: func(item any, _ Class, reason string) {
			shedItems = append(shedItems, item)
			shedReasons = append(shedReasons, reason)
		},
	})
	err := q.Submit(context.Background(), Ticket[int]{Item: 7, Deadline: time.Now().Add(-time.Millisecond)})
	if got := ShedReason(err); got != ReasonDeadline {
		t.Fatalf("reason = %q, want %q", got, ReasonDeadline)
	}
	if len(shedItems) != 1 || shedItems[0].(int) != 7 || shedReasons[0] != ReasonDeadline {
		t.Fatalf("OnShed = %v/%v", shedItems, shedReasons)
	}
}

func TestDeadlineExpiredInQueueShedAtTake(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	var shed int32
	q := NewQueue[int](Options{
		Capacity: 4,
		Clock:    clock,
		OnShed: func(_ any, _ Class, reason string) {
			if reason == ReasonExpiredInQueue {
				atomic.AddInt32(&shed, 1)
			}
		},
	})
	ctx := context.Background()
	// Admitted with 5s of budget.
	if err := q.Submit(ctx, Ticket[int]{Item: 1, Deadline: now.Add(5 * time.Second)}); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	// Fresh ticket with plenty of budget behind it.
	if err := q.Submit(ctx, Ticket[int]{Item: 2, Deadline: now.Add(time.Hour)}); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	// Time jumps past the first ticket's deadline while it sat queued.
	now = now.Add(10 * time.Second)
	got, ok := q.Take()
	if !ok {
		t.Fatal("take failed")
	}
	if got.Item != 2 {
		t.Fatalf("take returned item %d, want 2 (expired ticket must be shed, not run)", got.Item)
	}
	if atomic.LoadInt32(&shed) != 1 {
		t.Fatalf("expired-in-queue sheds = %d, want 1", shed)
	}
}

func TestBrownoutShedsDeferrableOnly(t *testing.T) {
	clockNow := time.Unix(0, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return clockNow }
	advance := func(d time.Duration) { mu.Lock(); clockNow = clockNow.Add(d); mu.Unlock() }

	bo := NewBrownout(BrownoutConfig{High: 2, Low: 0, Window: 10 * time.Millisecond, Clock: clock})
	var flips []bool
	bo.OnChange(func(active bool) { flips = append(flips, active) })

	q := NewQueue[int](Options{Capacity: 8, Policy: Shed, Brownout: bo, Clock: clock})
	ctx := context.Background()

	// Drive depth to the high watermark and hold it past the window.
	q.Submit(ctx, Ticket[int]{Item: 1})
	q.Submit(ctx, Ticket[int]{Item: 2}) // depth=2 >= High, starts the clock
	advance(20 * time.Millisecond)
	q.Submit(ctx, Ticket[int]{Item: 3}) // sustained above High → activate
	if !bo.Active() {
		t.Fatal("brownout should be active after sustained high depth")
	}
	if len(flips) != 1 || !flips[0] {
		t.Fatalf("OnChange flips = %v, want [true]", flips)
	}

	// Deferrable work is refused; Normal and Critical still admitted.
	err := q.Submit(ctx, Ticket[int]{Item: 4, Class: Deferrable})
	if got := ShedReason(err); got != ReasonBrownout {
		t.Fatalf("deferrable reason = %q, want %q", got, ReasonBrownout)
	}
	if err := q.Submit(ctx, Ticket[int]{Item: 5, Class: Normal}); err != nil {
		t.Fatalf("normal submit under brownout: %v", err)
	}
	if err := q.Submit(ctx, Ticket[int]{Item: 6, Class: Critical}); err != nil {
		t.Fatalf("critical submit under brownout: %v", err)
	}

	// Drain to the low watermark → deactivate.
	for q.Depth() > 0 {
		q.Take()
	}
	if bo.Active() {
		t.Fatal("brownout should deactivate once drained to low watermark")
	}
	if len(flips) != 2 || flips[1] {
		t.Fatalf("OnChange flips = %v, want [true false]", flips)
	}
	if bo.Activations() != 1 {
		t.Fatalf("activations = %d, want 1", bo.Activations())
	}
}

func TestBrownoutDipBelowHighResetsWindow(t *testing.T) {
	clockNow := time.Unix(0, 0)
	clock := func() time.Time { return clockNow }
	bo := NewBrownout(BrownoutConfig{High: 4, Window: 10 * time.Millisecond, Clock: clock})
	bo.Observe(4) // starts clock
	clockNow = clockNow.Add(5 * time.Millisecond)
	bo.Observe(3) // dips below: reset
	clockNow = clockNow.Add(20 * time.Millisecond)
	bo.Observe(4) // restarts clock — not yet sustained
	if bo.Active() {
		t.Fatal("dip below high must reset the sustain window")
	}
	clockNow = clockNow.Add(20 * time.Millisecond)
	bo.Observe(5)
	if !bo.Active() {
		t.Fatal("sustained above high must activate")
	}
}

func TestCloseShedsAndDrains(t *testing.T) {
	q := NewQueue[int](Options{Capacity: 4})
	ctx := context.Background()
	q.Submit(ctx, Ticket[int]{Item: 1})
	q.Submit(ctx, Ticket[int]{Item: 2})
	q.Close()
	if err := q.Submit(ctx, Ticket[int]{Item: 3}); ShedReason(err) != ReasonClosed {
		t.Fatalf("submit after close: %v", err)
	}
	// Remaining tickets drain.
	if got, ok := q.Take(); !ok || got.Item != 1 {
		t.Fatalf("take 1 = %v %v", got, ok)
	}
	if got, ok := q.Take(); !ok || got.Item != 2 {
		t.Fatalf("take 2 = %v %v", got, ok)
	}
	if _, ok := q.Take(); ok {
		t.Fatal("take after drain should report closed")
	}
}

func TestQueueConcurrentSubmitTakeConservation(t *testing.T) {
	const producers, perProducer = 8, 50
	obs := obsv.New()
	q := NewQueue[int](Options{Capacity: 4, Policy: Shed, Obs: obs})
	var taken int64
	var wg, takers sync.WaitGroup
	for w := 0; w < 2; w++ {
		takers.Add(1)
		go func() {
			defer takers.Done()
			for {
				if _, ok := q.Take(); !ok {
					return
				}
				atomic.AddInt64(&taken, 1)
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Submit(context.Background(), Ticket[int]{Item: i})
			}
		}()
	}
	wg.Wait()
	// Drain what's left.
	for q.Depth() > 0 {
		time.Sleep(time.Millisecond)
	}
	q.Close()
	takers.Wait()
	sub, adm, shed := q.Counts()
	if sub != producers*perProducer {
		t.Fatalf("submitted = %d, want %d", sub, producers*perProducer)
	}
	if adm+shed != sub {
		t.Fatalf("admitted(%d)+shed(%d) != submitted(%d)", adm, shed, sub)
	}
	if atomic.LoadInt64(&taken) != adm {
		t.Fatalf("taken = %d, want admitted = %d", taken, adm)
	}
	if hw := q.HighWater(); hw > q.Capacity() {
		t.Fatalf("high water %d exceeded capacity %d", hw, q.Capacity())
	}
	if g := obs.M().Snapshot().Gauges["sched.queue_depth"]; g.High > float64(q.Capacity()) {
		t.Fatalf("gauge high water %v exceeded capacity %d", g.High, q.Capacity())
	}
}

func TestLimiterFixedSemaphore(t *testing.T) {
	l := NewLimiter(AIMDConfig{Max: 2})
	ctx := context.Background()
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	tctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := l.Acquire(tctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("third acquire = %v, want deadline exceeded", err)
	}
	l.Release(time.Millisecond)
	if err := l.Acquire(ctx); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestLimiterAIMDAdapts(t *testing.T) {
	obs := obsv.New()
	l := NewLimiter(AIMDConfig{Min: 1, Max: 8, Target: 5 * time.Millisecond, Window: 4, Backoff: 0.5, Obs: obs})
	ctx := context.Background()
	// One slow window: p99 (20ms) > target (5ms) → multiplicative decrease.
	for i := 0; i < 4; i++ {
		if err := l.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		l.Release(20 * time.Millisecond)
	}
	if got := l.Limit(); got != 4 {
		t.Fatalf("limit after slow window = %d, want 4 (8*0.5)", got)
	}
	// Two fast windows: additive increase back up.
	for w := 0; w < 2; w++ {
		for i := 0; i < 4; i++ {
			if err := l.Acquire(ctx); err != nil {
				t.Fatal(err)
			}
			l.Release(time.Millisecond)
		}
	}
	if got := l.Limit(); got != 6 {
		t.Fatalf("limit after fast windows = %d, want 6", got)
	}
	snap := obs.M().Snapshot()
	if snap.Counters["admit.limit.decrease"] != 1 {
		t.Fatalf("decrease counter = %d, want 1", snap.Counters["admit.limit.decrease"])
	}
	if snap.Counters["admit.limit.increase"] != 2 {
		t.Fatalf("increase counter = %d, want 2", snap.Counters["admit.limit.increase"])
	}
	if snap.Gauges["admit.limit"].Value != 6 {
		t.Fatalf("admit.limit gauge = %v, want 6", snap.Gauges["admit.limit"].Value)
	}
}

func TestLimiterNeverBelowMin(t *testing.T) {
	l := NewLimiter(AIMDConfig{Min: 2, Max: 8, Target: time.Millisecond, Window: 2})
	ctx := context.Background()
	for w := 0; w < 10; w++ {
		for i := 0; i < 2; i++ {
			if err := l.Acquire(ctx); err != nil {
				t.Fatal(err)
			}
			l.Release(time.Second) // always way over target
		}
	}
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit = %d, want floor 2", got)
	}
}

func TestLimiterConcurrencyNeverExceedsLimit(t *testing.T) {
	l := NewLimiter(AIMDConfig{Max: 3})
	var inflight, maxSeen int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Acquire(context.Background()); err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			cur := atomic.AddInt64(&inflight, 1)
			for {
				old := atomic.LoadInt64(&maxSeen)
				if cur <= old || atomic.CompareAndSwapInt64(&maxSeen, old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&inflight, -1)
			l.Release(time.Millisecond)
		}()
	}
	wg.Wait()
	if m := atomic.LoadInt64(&maxSeen); m > 3 {
		t.Fatalf("observed %d concurrent holders, limit 3", m)
	}
}

func TestNilInstrumentsAreInert(t *testing.T) {
	var l *Limiter
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatalf("nil limiter acquire: %v", err)
	}
	l.Release(time.Second)
	var b *Brownout
	b.Observe(100)
	if b.Active() {
		t.Fatal("nil brownout active")
	}
	b.OnChange(func(bool) {})
	if NewLimiter(AIMDConfig{}) != nil {
		t.Fatal("zero config should yield nil limiter")
	}
	if NewBrownout(BrownoutConfig{}) != nil {
		t.Fatal("zero config should yield nil brownout")
	}
}
