package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SlotPair enforces acquire/release pairing for pooled resources, such
// as the stats timeline's AcquireBacking/ReleaseBacking: every resource
// claimed through an Acquire-family method must be returned by the
// matching Release on all paths out of the claiming function —
// including panics and early returns, which is exactly what a deferred
// Release guarantees and ad-hoc call-site pairing does not.
//
// Mechanically: a call x.M(...) where M is "Acquire", "TryAcquire" or
// "Acquire<Suffix>"/"TryAcquire<Suffix>", and x's type also has the
// matching "Release"/"Release<Suffix>" method, creates an obligation in
// the enclosing function. The obligation is met by a `defer` — either
// `defer x.Release(...)` directly or a deferred closure whose body
// calls x.Release — on the same receiver expression. Protocols that
// intentionally span functions (a constructor acquires, a finalizer
// releases) carry an //mtvlint:allow slotpair directive at the acquire
// site naming where the release lives.
var SlotPair = &Analyzer{
	Name: "slotpair",
	Doc:  "every Acquire-family call (e.g. AcquireBacking) must be matched by a deferred Release on all paths (panic- and early-return-safe)",
	Run:  runSlotPair,
}

func runSlotPair(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSlotFunc(pass, fd)
		}
	}
}

// acquireCall is one obligation-creating call site.
type acquireCall struct {
	call        *ast.CallExpr
	recv        string // canonical receiver text, e.g. "b.slots"
	releaseName string
}

func checkSlotFunc(pass *Pass, fd *ast.FuncDecl) {
	var acquires []acquireCall
	released := make(map[string]bool) // recv + "\x00" + releaseName seen under defer

	// walk visits the body tracking whether execution is inside a
	// deferred context (a deferred call or a deferred closure's body).
	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.DeferStmt:
				noteCall(pass, m.Call, true, &acquires, released)
				if fl, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
					walk(fl.Body, true)
				}
				for _, a := range m.Call.Args {
					walk(a, deferred) // arguments evaluate at defer time, not unwind
				}
				return false
			case *ast.CallExpr:
				noteCall(pass, m, deferred, &acquires, released)
			}
			return true
		})
	}
	walk(fd.Body, false)

	for _, a := range acquires {
		key := a.recv + "\x00" + a.releaseName
		if released[key] {
			continue
		}
		pass.Reportf(a.call.Pos(), "%s.%s result is not matched by a deferred %s.%s in this function; a panic or early return leaks the claimed slots (defer the release, or //mtvlint:allow slotpair -- where it is released)",
			a.recv, methodName(a.call), a.recv, a.releaseName)
	}
}

// noteCall classifies one call as acquire, deferred release, or
// neither.
func noteCall(pass *Pass, call *ast.CallExpr, deferred bool, acquires *[]acquireCall, released map[string]bool) {
	info := pass.Pkg.TypesInfo
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	recvType := info.TypeOf(sel.X)
	if recvType == nil {
		return
	}
	recv := exprString(pass.Pkg.Fset, sel.X)

	if deferred && strings.HasPrefix(name, "Release") {
		released[recv+"\x00"+name] = true
		return
	}
	suffix, isAcquire := acquireSuffix(name)
	if !isAcquire {
		return
	}
	releaseName := "Release" + suffix
	if !hasMethod(recvType, releaseName) {
		return // not a paired protocol (e.g. sync/semaphore-unrelated names)
	}
	*acquires = append(*acquires, acquireCall{call: call, recv: recv, releaseName: releaseName})
}

// acquireSuffix matches the Acquire-family method names and returns the
// pairing suffix ("" for Acquire/TryAcquire, "Backing" for
// AcquireBacking, ...).
func acquireSuffix(name string) (string, bool) {
	if s, ok := strings.CutPrefix(name, "TryAcquire"); ok {
		return s, true
	}
	if s, ok := strings.CutPrefix(name, "Acquire"); ok {
		return s, true
	}
	return "", false
}

// hasMethod reports whether t (or *t) has a method with the given name.
func hasMethod(t types.Type, name string) bool {
	if _, ok := t.Underlying().(*types.Interface); ok {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		_, isFunc := obj.(*types.Func)
		return isFunc
	}
	for _, tt := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(tt)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				return true
			}
		}
	}
	return false
}

func methodName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "?"
}
