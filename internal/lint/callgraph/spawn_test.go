package callgraph

import "testing"

func TestSpawnRolesScheduler(t *testing.T) {
	g, _ := load(t, `package p

type sched struct{ n int }

func Run(s *sched) {
	for i := 0; i < 4; i++ {
		go s.worker()
	}
}

func (s *sched) worker() {
	s.advance()
}

func (s *sched) advance() { s.n++ }

func shared() {} // called from both roles

func Front(s *sched) { shared() }

func (s *sched) helperFromWorker() {}
`)
	roles := g.SpawnRoles()

	for key, want := range map[string]Role{
		"example.com/p.Run":             RoleMain,
		"example.com/p.(sched).worker":  RoleWorker,
		"example.com/p.(sched).advance": RoleWorker,
		"example.com/p.Front":           RoleMain,
	} {
		if got := roles[key]; got != want {
			t.Errorf("role[%s] = %v, want %v", key, got, want)
		}
	}
	if r := roles["example.com/p.(sched).worker"]; !r.Spawned() || r&RoleMain != 0 {
		t.Error("worker should run only on spawned goroutines")
	}
	if roles["example.com/p.(sched).advance"].Spawned() != true {
		t.Error("advance should inherit the worker role through the call edge")
	}
}

func TestSpawnRolesFanoutAndValueRef(t *testing.T) {
	g, _ := load(t, `package p

func Run() {
	go helper()
	use(taken)
}

func helper() {}

func taken() {}

func use(f func()) { f() }
`)
	roles := g.SpawnRoles()
	if got := roles["example.com/p.helper"]; got != RoleFanout {
		t.Errorf("helper role = %v, want fanout", got)
	}
	if got := roles["example.com/p.taken"]; got&RoleMain == 0 {
		t.Errorf("value-referenced function should be main-role, got %v", got)
	}
	if !g.ValueRef["example.com/p.taken"] {
		t.Error("taken should be marked as a value reference")
	}
	if g.ValueRef["example.com/p.helper"] {
		t.Error("helper is only spawned, not referenced as a value")
	}
}

func TestSpawnRolesMixed(t *testing.T) {
	g, _ := load(t, `package p

func Run() {
	go both()
	go both()
}

func Direct() { both() }

func both() {}
`)
	roles := g.SpawnRoles()
	got := roles["example.com/p.both"]
	if got&RoleWorker == 0 || got&RoleMain == 0 {
		t.Errorf("both should be worker|main, got %v", got)
	}
}

func TestSpawnRolesClosure(t *testing.T) {
	g, _ := load(t, `package p

import "sync"

func Run(wg *sync.WaitGroup) {
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
}

func work() {}
`)
	roles := g.SpawnRoles()
	if got := roles["example.com/p.Run$0"]; got != RoleWorker {
		t.Errorf("loop-spawned closure role = %v, want worker", got)
	}
	if got := roles["example.com/p.work"]; got&RoleWorker == 0 {
		t.Errorf("work called from the spawned closure should be worker-role, got %v", got)
	}
}

func TestRoleString(t *testing.T) {
	if got := Role(0).String(); got != "unknown" {
		t.Errorf("zero role = %q", got)
	}
	if got := (RoleMain | RoleWorker).String(); got != "main|worker" {
		t.Errorf("main|worker = %q", got)
	}
}
