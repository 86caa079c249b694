package analysis

import (
	"go/ast"
	"go/types"
)

// LockOrder enforces lock pairing: every Lock/RLock on a sync.Mutex or
// sync.RWMutex must have a matching Unlock/RUnlock somewhere in the same
// function (deferred, on an error path, or inside a closure the function
// builds). The check keeps its historic name from when it also ordered the
// provenance store's two write locks; the store now has one.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "every Lock has a matching Unlock in the same function",
	Run:  runLockOrder,
}

// lockEvent is one mutex operation found in source order.
type lockEvent struct {
	key    string // (receiver type, field) identity
	method string // Lock, RLock, Unlock, RUnlock
	call   *ast.CallExpr
}

func runLockOrder(pass *Pass) error {
	info := pass.Pkg.Info
	eachFuncDecl(pass.Pkg, func(fn *ast.FuncDecl) {
		var events []lockEvent
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if ev, ok := lockEventOf(info, call); ok {
					events = append(events, ev)
				}
			}
			return true
		})
		checkPairing(pass, fn, events)
	})
	return nil
}

// lockEventOf recognizes m.Lock / m.RLock / m.Unlock / m.RUnlock calls on
// sync.Mutex / sync.RWMutex values. TryLock variants are ignored: a failed
// TryLock legitimately has no matching unlock.
func lockEventOf(info *types.Info, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	method := sel.Sel.Name
	switch method {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return lockEvent{}, false
	}
	recvT := deref(info.TypeOf(sel.X))
	if !isPkgType(recvT, "sync", "Mutex") && !isPkgType(recvT, "sync", "RWMutex") {
		return lockEvent{}, false
	}
	var field, recv string
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		field = x.Sel.Name
		// Key by (defined type of the base, field name) so e.mu.Unlock
		// pairs with st.items[i].mu.Lock: both are (item, mu).
		if n := namedOf(info.TypeOf(x.X)); n != nil {
			recv = n.Obj().Name()
		}
	case *ast.Ident:
		field = x.Name
	default:
		return lockEvent{}, false
	}
	return lockEvent{key: recv + "." + field, method: method, call: call}, true
}

// checkPairing requires at least one matching unlock per locked key. This
// is deliberately flow-insensitive: it catches the real bug class (a lock
// with no unlock anywhere, including all return paths) without false
// positives on hand-over-hand or closure-deferred unlocking.
func checkPairing(pass *Pass, fn *ast.FuncDecl, events []lockEvent) {
	type state struct {
		first    *lockEvent
		unlocked bool
	}
	unlockOf := map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}
	for lock, unlock := range unlockOf {
		held := make(map[string]*state)
		for i := range events {
			ev := &events[i]
			switch ev.method {
			case lock:
				if held[ev.key] == nil {
					held[ev.key] = &state{first: ev}
				}
			case unlock:
				if s := held[ev.key]; s != nil {
					s.unlocked = true
				} else {
					held[ev.key] = &state{unlocked: true}
				}
			}
		}
		for key, s := range held {
			if s.first != nil && !s.unlocked {
				pass.Reportf(s.first.call.Pos(),
					"%s on %s has no matching %s in %s", lock, key, unlock, fn.Name.Name)
			}
		}
	}
}
