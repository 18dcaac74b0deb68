package wfsql

import (
	"context"
	"fmt"

	"wfsql/internal/engine"
	"wfsql/internal/journal"
	"wfsql/internal/resilience"
)

// Stack describes one product stack's running example. Everything that
// runs the example — a single instance, the parallel scheduler, the
// overload-protected pool, a fleet shard, a failover takeover — and every
// test matrix takes a Stack, so how to prepare, run and recover each
// product is written once, below.
type Stack struct {
	// Name is the product: "BIS", "WF" or "Oracle".
	Name string
	// Figure is the paper figure the stack reproduces ("Figure4", ...).
	Figure string
	// Prepare builds the figure with the given reliability policies and
	// deploys it on env. It is called once per environment — and again on
	// the rebuilt host after a crash or takeover.
	Prepare func(env *Environment, cfg ResilienceConfig) (*Prepared, error)
}

// Prepared is a stack deployed on one environment.
type Prepared struct {
	// Run executes one instance under ctx's deadline budget. It is safe
	// for concurrent use: all per-instance state lives in the run.
	Run func(ctx context.Context) error
	// Recover resumes, against this deployment, every in-flight instance
	// recorded in rec — the journal attached to the host.
	Recover func(rec *journal.Recorder) error
	// DeadLetters is the dead-letter log of the workflow host the stack
	// runs on (the BPEL engine or the WF runtime).
	DeadLetters *resilience.DeadLetterLog
	// Journal returns the recorder attached to that host (nil if none).
	Journal func() *journal.Recorder
}

// The three surveyed products.
var (
	// StackBIS runs Figure 4 on the BPEL engine with IBM's SQL activities.
	StackBIS = Stack{Name: "BIS", Figure: "Figure4",
		Prepare: func(env *Environment, cfg ResilienceConfig) (*Prepared, error) {
			return env.prepareBPEL(env.BuildFigure4BISResilient(cfg))
		}}

	// StackWF runs Figure 6 on the WF runtime. The activity tree is built
	// once and shared — WF activities are immutable configuration; host
	// variables and sqldb sessions live in each run's Context.
	StackWF = Stack{Name: "WF", Figure: "Figure6",
		Prepare: func(env *Environment, cfg ResilienceConfig) (*Prepared, error) {
			root := env.BuildFigure6WFResilient(cfg)
			return &Prepared{
				Run: func(ctx context.Context) error {
					_, err := env.Runtime.RunCtx(ctx, root, map[string]any{"Index": 0})
					return err
				},
				Recover: func(rec *journal.Recorder) error {
					for _, ij := range rec.InFlight() {
						if _, err := env.Runtime.Resume(root, ij); err != nil {
							return err
						}
					}
					return nil
				},
				DeadLetters: env.Runtime.DeadLetters,
				Journal:     env.Runtime.Journal,
			}, nil
		}}

	// StackOracle runs Figure 8 on the BPEL engine with Oracle's XPath
	// extension functions, which run on the calling instance's session.
	StackOracle = Stack{Name: "Oracle", Figure: "Figure8",
		Prepare: func(env *Environment, cfg ResilienceConfig) (*Prepared, error) {
			p, err := env.BuildFigure8OracleResilient(cfg)
			if err != nil {
				return nil, err
			}
			return env.prepareBPEL(p)
		}}
)

// instanceName labels the i-th instance of a multi-instance run
// ("Figure4_BIS#0", ...).
func (s Stack) instanceName(i int) string {
	return fmt.Sprintf("%s_%s#%d", s.Figure, s.Name, i)
}

// Stacks returns the three product stacks in the paper's order.
func Stacks() []Stack { return []Stack{StackBIS, StackWF, StackOracle} }

// prepareBPEL deploys a process on the BPEL engine (BIS and Oracle).
func (env *Environment) prepareBPEL(p *engine.Process) (*Prepared, error) {
	d, err := env.Engine.Deploy(p)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		Run: func(ctx context.Context) error {
			_, err := d.RunCtx(ctx, nil)
			return err
		},
		Recover: func(rec *journal.Recorder) error {
			_, err := engine.Recover(rec, map[string]*engine.Deployment{p.Name: d})
			return err
		},
		DeadLetters: env.Engine.DeadLetters,
		Journal:     env.Engine.Journal,
	}, nil
}

// Run prepares the stack on the environment and executes one instance.
func (env *Environment) Run(s Stack, cfg ResilienceConfig) error {
	p, err := s.Prepare(env, cfg)
	if err != nil {
		return err
	}
	return p.Run(context.Background())
}
