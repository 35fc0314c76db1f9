package expr

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func evalOK(t *testing.T, src string, env Env) float64 {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	v, err := e.Eval(env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestParseEvalArithmetic(t *testing.T) {
	t.Parallel()
	tests := []struct {
		src  string
		want float64
	}{
		{"1", 1},
		{"1 + 2*3", 7},
		{"(1+2)*3", 9},
		{"2^10", 1024},
		{"2^3^2", 512}, // right associative
		{"-2^2", -4},
		{"-2*3", -6},
		{"10/4", 2.5},
		{"1 - 2 - 3", -4}, // left associative
		{"+5", 5},
		{"1.5e2", 150},
		{".5", 0.5},
		{"3e-1", 0.3},
		{"min(3, 2)", 2},
		{"max(3, 2)", 3},
		{"pow(2, 8)", 256},
		{"abs(-4)", 4},
		{"sqrt(16)", 4},
		{"exp(0)", 1},
		{"log(exp(1))", 1},
		{"min(1+1, 2*3)", 2},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.src, func(t *testing.T) {
			t.Parallel()
			if got := evalOK(t, tc.src, nil); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Eval(%q) = %v, want %v", tc.src, got, tc.want)
			}
		})
	}
}

func TestParseEvalVariables(t *testing.T) {
	t.Parallel()
	env := MapEnv{"La_hadb": 2.0 / 8760, "FIR": 0.001, "N_pair": 2}
	got := evalOK(t, "2*La_hadb*(1 - FIR)", env)
	want := 2 * (2.0 / 8760) * 0.999
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("got %v, want %v", got, want)
	}
	// RAScad-style $ prefix refers to the same parameter.
	if got := evalOK(t, "$N_pair * $La_hadb", env); math.Abs(got-2*2.0/8760) > 1e-15 {
		t.Errorf("$-prefixed lookup = %v", got)
	}
}

func TestUndefinedParameter(t *testing.T) {
	t.Parallel()
	e := MustParse("La * 2")
	_, err := e.Eval(MapEnv{})
	var ue *UndefinedError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UndefinedError", err)
	}
	if ue.Name != "La" {
		t.Errorf("UndefinedError.Name = %q, want La", ue.Name)
	}
}

func TestEvalErrors(t *testing.T) {
	t.Parallel()
	tests := []string{"1/0", "log(0)", "log(-1)", "sqrt(-1)"}
	for _, src := range tests {
		src := src
		t.Run(src, func(t *testing.T) {
			t.Parallel()
			e := MustParse(src)
			_, err := e.Eval(nil)
			var ee *EvalError
			if !errors.As(err, &ee) {
				t.Fatalf("Eval(%q) err = %v, want EvalError", src, err)
			}
		})
	}
}

func TestSyntaxErrors(t *testing.T) {
	t.Parallel()
	tests := []string{
		"", "1 +", "(1", "1)", "min(1)", "min(1,2,3)", "nosuchfn(1)",
		"1 2", "@", "$", "$ x", "1..2", ".", "min(1,)",
	}
	for _, src := range tests {
		src := src
		t.Run(src, func(t *testing.T) {
			t.Parallel()
			_, err := Parse(src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", src)
			}
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("Parse(%q) err = %v, want SyntaxError", src, err)
			}
		})
	}
}

func TestVars(t *testing.T) {
	t.Parallel()
	e := MustParse("2*La*(1-FIR) + min(Acc, La)")
	got := e.Vars()
	want := []string{"Acc", "FIR", "La"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

func TestConstant(t *testing.T) {
	t.Parallel()
	if v, ok := MustParse("3*(2+1)").Constant(); !ok || v != 9 {
		t.Errorf("Constant = %v,%v, want 9,true", v, ok)
	}
	if _, ok := MustParse("La").Constant(); ok {
		t.Error("Constant(La) reported constant")
	}
	// Constant with a domain error is not constant-foldable.
	if _, ok := MustParse("1/0").Constant(); ok {
		t.Error("Constant(1/0) reported constant")
	}
}

// TestStringRoundTrip: rendering an expression and reparsing it preserves
// its value on a fixed environment.
func TestStringRoundTrip(t *testing.T) {
	t.Parallel()
	env := MapEnv{"a": 1.25, "b": -3, "c": 0.5}
	sources := []string{
		"a + b*c", "(a+b)^2", "-a", "min(a, max(b, c))", "a/b - c",
		"2*a*(1 - c)", "a^b^c",
	}
	for _, src := range sources {
		src := src
		t.Run(src, func(t *testing.T) {
			t.Parallel()
			e1 := MustParse(src)
			rendered := e1.String()
			e2, err := Parse(rendered)
			if err != nil {
				t.Fatalf("reparse %q (from %q): %v", rendered, src, err)
			}
			v1, err1 := e1.Eval(env)
			v2, err2 := e2.Eval(env)
			if err1 != nil || err2 != nil {
				t.Fatalf("eval errors: %v, %v", err1, err2)
			}
			if math.Abs(v1-v2) > 1e-12*math.Max(1, math.Abs(v1)) {
				t.Errorf("round trip: %v != %v", v1, v2)
			}
		})
	}
}

// TestStringMinimalParentheses: String adds only the parentheses the
// tree needs, so a rendering re-parses to itself, and an expression
// nesting close to the parser's cap still re-parses: a right-deep '^'
// chain rendered with a parenthesis around every operand would nest
// twice as deep as its source.
func TestStringMinimalParentheses(t *testing.T) {
	t.Parallel()
	for src, want := range map[string]string{
		"(-a)^b":   "(-a) ^ b",
		"-a^b":     "-a ^ b",
		"-(a*b)":   "-(a * b)",
		"(a^b)^c":  "(a ^ b) ^ c",
		"a^b^c":    "a ^ b ^ c",
		"a-(b-c)":  "a - (b - c)",
		"(a-b)-c":  "a - b - c",
		"a*-b+c":   "a * -b + c",
		"(a/b)*c":  "a / b * c",
		"a/(b*c)":  "a / (b * c)",
		"(a+b)*2":  "(a + b) * 2",
		"-(-a)^2":  "-(-a) ^ 2",
		"-a^b*c":   "-a ^ b * c",
		"min(a,b)": "min(a, b)",
	} {
		if got := MustParse(src).String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", src, got, want)
		} else if again := MustParse(got).String(); again != got {
			t.Errorf("%q re-renders as %q", got, again)
		}
	}
	for _, src := range []string{
		strings.Repeat("a^", maxNesting-1) + "a",
		strings.Repeat("-a^", maxNesting/2-1) + "a",
		strings.Repeat("a+b*(", maxNesting/3) + "a" + strings.Repeat(")", maxNesting/3),
	} {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%.20q…): %v", src, err)
		}
		if _, err := Parse(e.String()); err != nil {
			t.Errorf("rendering of %.20q… does not re-parse: %v", src, err)
		}
	}
}

// TestRandomExprRoundTrip property-tests String/Parse/Eval agreement on
// randomly generated ASTs.
func TestRandomExprRoundTrip(t *testing.T) {
	t.Parallel()
	var build func(r *rand.Rand, depth int) string
	build = func(r *rand.Rand, depth int) string {
		if depth <= 0 || r.Intn(3) == 0 {
			switch r.Intn(3) {
			case 0:
				return "x"
			case 1:
				return "y"
			default:
				// Positive constants keep ^ well-defined.
				return []string{"1", "2", "0.5", "3"}[r.Intn(4)]
			}
		}
		a, b := build(r, depth-1), build(r, depth-1)
		op := []string{"+", "-", "*"}[r.Intn(3)]
		return "(" + a + " " + op + " " + b + ")"
	}
	env := MapEnv{"x": 1.5, "y": 2.25}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := build(r, 4)
		e1, err := Parse(src)
		if err != nil {
			return false
		}
		e2, err := Parse(e1.String())
		if err != nil {
			return false
		}
		v1, err1 := e1.Eval(env)
		v2, err2 := e2.Eval(env)
		return err1 == nil && err2 == nil && math.Abs(v1-v2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFunctionsList(t *testing.T) {
	t.Parallel()
	fns := Functions()
	if len(fns) == 0 {
		t.Fatal("Functions() empty")
	}
	joined := strings.Join(fns, ",")
	for _, want := range []string{"exp", "log", "min", "max", "pow", "sqrt", "abs"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Functions() missing %q: %v", want, fns)
		}
	}
	// Sorted.
	for i := 1; i < len(fns); i++ {
		if fns[i-1] >= fns[i] {
			t.Errorf("Functions() not sorted: %v", fns)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input did not panic")
		}
	}()
	MustParse("((")
}

func TestSourcePreserved(t *testing.T) {
	t.Parallel()
	const src = "2*La_hadb*(1-FIR)"
	if got := MustParse(src).Source(); got != src {
		t.Errorf("Source = %q, want %q", got, src)
	}
}

func TestErrorMessages(t *testing.T) {
	t.Parallel()
	_, err := Parse("@")
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(se.Error(), "offset 0") {
		t.Errorf("SyntaxError.Error() = %q", se.Error())
	}
	ue := &UndefinedError{Name: "La"}
	if !strings.Contains(ue.Error(), "La") {
		t.Errorf("UndefinedError.Error() = %q", ue.Error())
	}
	ee := &EvalError{Op: "divide", Message: "division by zero"}
	if !strings.Contains(ee.Error(), "divide") {
		t.Errorf("EvalError.Error() = %q", ee.Error())
	}
}

func TestTokenizeHelper(t *testing.T) {
	t.Parallel()
	toks, err := tokenize("1 + x * (2 - 3) / y ^ 2, min")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	// 15 tokens + EOF.
	if len(toks) != 16 {
		t.Errorf("tokens = %d, want 16", len(toks))
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF token")
	}
	if _, err := tokenize("#"); err == nil {
		t.Error("tokenize accepted '#'")
	}
}

func TestTokenKindStrings(t *testing.T) {
	t.Parallel()
	kinds := []tokenKind{
		tokEOF, tokNumber, tokIdent, tokPlus, tokMinus, tokStar,
		tokSlash, tokCaret, tokLParen, tokRParen, tokComma,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("duplicate or empty token string for %d: %q", int(k), s)
		}
		seen[s] = true
	}
	if tokenKind(99).String() == "" {
		t.Error("unknown token kind string empty")
	}
}

func TestUnaryAndCallVars(t *testing.T) {
	t.Parallel()
	// Exercise vars() on unary and call nodes.
	e := MustParse("-a + min(b, -c)")
	got := e.Vars()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
	// String rendering of unary and call nodes round-trips.
	e2, err := Parse(e.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", e.String(), err)
	}
	env := MapEnv{"a": 1, "b": 2, "c": 3}
	v1, _ := e.Eval(env)
	v2, _ := e2.Eval(env)
	if v1 != v2 {
		t.Errorf("round trip: %v != %v", v1, v2)
	}
}

func TestEvalErrorInsideUnaryAndCall(t *testing.T) {
	t.Parallel()
	// Error propagation through unary and call argument evaluation.
	if _, err := MustParse("-(1/0)").Eval(nil); err == nil {
		t.Error("unary should propagate eval error")
	}
	if _, err := MustParse("min(1, 1/0)").Eval(nil); err == nil {
		t.Error("call should propagate eval error")
	}
	if _, err := MustParse("(1/0) + 1").Eval(nil); err == nil {
		t.Error("left operand error should propagate")
	}
	if _, err := MustParse("1 + (1/0)").Eval(nil); err == nil {
		t.Error("right operand error should propagate")
	}
	if _, err := MustParse("x").Eval(nil); err == nil {
		t.Error("nil env lookup should fail")
	}
}

func TestNumberLexingEdgeCases(t *testing.T) {
	t.Parallel()
	cases := map[string]float64{
		"1e3":    1000,
		"1E3":    1000,
		"1.5e+2": 150,
		"2.5E-1": 0.25,
		"0.0":    0,
		"007":    7,
		"1.25e0": 1.25,
	}
	for src, want := range cases {
		got := evalOK(t, src, nil)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Eval(%q) = %v, want %v", src, got, want)
		}
	}
	// "1e" stops the number before 'e'... the lexer consumes the exponent
	// marker only with digits after sign; "1e" yields "1e" which fails
	// ParseFloat or splits; either way Parse must not accept it silently
	// producing a wrong value.
	if e, err := Parse("1e"); err == nil {
		if v, err2 := e.Eval(MapEnv{"e": 2}); err2 == nil && v != 0 {
			// Lexed as "1" then ident "e" juxtaposed → syntax error
			// expected; reaching here means it parsed as something else.
			t.Errorf("Parse(\"1e\") unexpectedly evaluated to %v", v)
		}
	}
}

// TestNestingCap: expressions nesting past maxNesting are a SyntaxError,
// found before the parser recurses further, and the cap leaves room for
// everything up to it. A unary minus nested 100,000 deep parsed fine
// once and then took seconds to render.
func TestNestingCap(t *testing.T) {
	t.Parallel()
	tooDeep := map[string]string{
		"unary minus": strings.Repeat("-", 100000) + "1",
		"parentheses": strings.Repeat("(", 100000) + "1" + strings.Repeat(")", 100000),
		"calls":       strings.Repeat("abs(", 100000) + "1" + strings.Repeat(")", 100000),
		"power chain": "2" + strings.Repeat("^2", 100000),
		"flat sum":    "1" + strings.Repeat("+1", 100000),
	}
	for name, src := range tooDeep {
		start := time.Now()
		_, err := Parse(src)
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Message, "nests deeper") {
			t.Errorf("%s: err = %v, want a nesting SyntaxError", name, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: rejected after %v", name, d)
		}
	}
	// A long run of unary pluses adds no node and no level.
	if _, err := Parse(strings.Repeat("+", 100000) + "1"); err != nil {
		t.Errorf("unary plus run: %v", err)
	}
	atCap := map[string]string{
		"unary minus": strings.Repeat("-", maxNesting) + "1",
		"parentheses": strings.Repeat("(", maxNesting) + "1" + strings.Repeat(")", maxNesting),
		"flat sum":    "1" + strings.Repeat("+1", maxNesting),
	}
	for name, src := range atCap {
		if _, err := Parse(src); err != nil {
			t.Errorf("%s at the cap: %v", name, err)
		}
		if _, err := Parse("(" + src + ")"); err == nil {
			t.Errorf("%s one past the cap parsed", name)
		}
	}
}
