package expr

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Node is an expression AST node.
type Node interface {
	// Eval computes the node's value against the parameter environment.
	Eval(env Env) (float64, error)
	// String renders the node back to parseable source.
	String() string
	// vars accumulates referenced parameter names into set.
	vars(set map[string]struct{})
}

// Env supplies parameter values during evaluation.
type Env interface {
	// Lookup returns the value bound to name and whether it exists.
	Lookup(name string) (float64, bool)
}

// MapEnv is the common map-backed environment.
type MapEnv map[string]float64

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (float64, bool) {
	v, ok := m[name]
	return v, ok
}

// UndefinedError reports a parameter referenced but absent from the Env.
type UndefinedError struct {
	Name string
}

func (e *UndefinedError) Error() string {
	return fmt.Sprintf("expr: undefined parameter %q", e.Name)
}

// EvalError reports a domain failure during evaluation (division by zero,
// log of a non-positive number, ...).
type EvalError struct {
	Op      string
	Message string
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("expr: %s: %s", e.Op, e.Message)
}

type numberNode float64

func (n numberNode) Eval(Env) (float64, error) { return float64(n), nil }
func (n numberNode) String() string {
	return strconv.FormatFloat(float64(n), 'g', -1, 64)
}
func (n numberNode) vars(map[string]struct{}) {}

type varNode string

func (v varNode) Eval(env Env) (float64, error) {
	if env != nil {
		if x, ok := env.Lookup(string(v)); ok {
			return x, nil
		}
	}
	return 0, &UndefinedError{Name: string(v)}
}
func (v varNode) String() string               { return string(v) }
func (v varNode) vars(set map[string]struct{}) { set[string(v)] = struct{}{} }

type unaryNode struct {
	op   byte // '-'
	expr Node
}

func (u *unaryNode) Eval(env Env) (float64, error) {
	v, err := u.expr.Eval(env)
	if err != nil {
		return 0, err
	}
	return -v, nil
}
func (u *unaryNode) String() string {
	if b, ok := u.expr.(*binaryNode); ok && b.power() < unaryPower {
		return "-(" + b.String() + ")"
	}
	return "-" + u.expr.String()
}
func (u *unaryNode) vars(set map[string]struct{}) { u.expr.vars(set) }

type binaryNode struct {
	op          byte // '+', '-', '*', '/', '^'
	left, right Node
}

func (b *binaryNode) Eval(env Env) (float64, error) {
	l, err := b.left.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.right.Eval(env)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, &EvalError{Op: "divide", Message: "division by zero"}
		}
		return l / r, nil
	case '^':
		return math.Pow(l, r), nil
	}
	return 0, &EvalError{Op: string(b.op), Message: "unknown operator"}
}

// String renders b with only the parentheses its tree needs, so that the
// rendering re-parses to the same tree and nests no deeper than any
// source text of it.
func (b *binaryNode) String() string {
	lp, rp, _ := infixPower(string(b.op))
	left := b.left.String()
	switch l := b.left.(type) {
	case *binaryNode:
		// The left operand's operator keeps its right operand from b's
		// operator only when it binds tighter.
		if _, lrp, _ := infixPower(string(l.op)); lrp <= lp {
			left = "(" + left + ")"
		}
	case *unaryNode:
		// A unary minus would take b's operator into its operand.
		if unaryPower <= lp {
			left = "(" + left + ")"
		}
	}
	right := b.right.String()
	if r, ok := b.right.(*binaryNode); ok && r.power() < rp {
		right = "(" + right + ")"
	}
	return left + " " + string(b.op) + " " + right
}

// power is the left binding power of b's operator: b renders without
// parentheses as an operand parsed at any power up to it.
func (b *binaryNode) power() int {
	lp, _, _ := infixPower(string(b.op))
	return lp
}
func (b *binaryNode) vars(set map[string]struct{}) {
	b.left.vars(set)
	b.right.vars(set)
}

type callNode struct {
	name string
	args []Node
}

// function describes a builtin callable.
type function struct {
	arity int
	apply func(args []float64) (float64, error)
}

var builtins = map[string]function{
	"exp": {1, func(a []float64) (float64, error) { return math.Exp(a[0]), nil }},
	"log": {1, func(a []float64) (float64, error) {
		if a[0] <= 0 {
			return 0, &EvalError{Op: "log", Message: fmt.Sprintf("argument %g not positive", a[0])}
		}
		return math.Log(a[0]), nil
	}},
	"sqrt": {1, func(a []float64) (float64, error) {
		if a[0] < 0 {
			return 0, &EvalError{Op: "sqrt", Message: fmt.Sprintf("argument %g negative", a[0])}
		}
		return math.Sqrt(a[0]), nil
	}},
	"abs": {1, func(a []float64) (float64, error) { return math.Abs(a[0]), nil }},
	"min": {2, func(a []float64) (float64, error) { return math.Min(a[0], a[1]), nil }},
	"max": {2, func(a []float64) (float64, error) { return math.Max(a[0], a[1]), nil }},
	"pow": {2, func(a []float64) (float64, error) { return math.Pow(a[0], a[1]), nil }},
}

// Functions returns the sorted names of the builtin functions, for
// documentation and error messages.
func Functions() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (c *callNode) Eval(env Env) (float64, error) {
	fn, ok := builtins[c.name]
	if !ok {
		return 0, &EvalError{Op: c.name, Message: "unknown function"}
	}
	args := make([]float64, len(c.args))
	for i, a := range c.args {
		v, err := a.Eval(env)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	return fn.apply(args)
}

func (c *callNode) String() string {
	parts := make([]string, len(c.args))
	for i, a := range c.args {
		parts[i] = a.String()
	}
	return c.name + "(" + strings.Join(parts, ", ") + ")"
}

func (c *callNode) vars(set map[string]struct{}) {
	for _, a := range c.args {
		a.vars(set)
	}
}

// Expr is a parsed, reusable expression.
type Expr struct {
	root Node
	src  string
}

// Parse compiles source text into an Expr.
func Parse(src string) (*Expr, error) {
	p := &parser{lex: &lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	root, err := p.parseExpr(0, 0)
	if err != nil {
		return nil, err
	}
	if p.cur.kind != tokEOF {
		return nil, &SyntaxError{Pos: p.cur.pos, Message: fmt.Sprintf("unexpected %s", p.cur.kind)}
	}
	return &Expr{root: root, src: src}, nil
}

// MustParse is Parse for statically known-good expressions; it panics on
// error and is intended for package-level model definitions and tests.
func MustParse(src string) *Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Eval evaluates the expression against env.
func (e *Expr) Eval(env Env) (float64, error) { return e.root.Eval(env) }

// Source returns the original source text.
func (e *Expr) Source() string { return e.src }

// String renders a normalized form of the expression.
func (e *Expr) String() string { return e.root.String() }

// Vars returns the sorted set of parameter names the expression references.
func (e *Expr) Vars() []string {
	set := make(map[string]struct{})
	e.root.vars(set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Constant reports whether the expression references no parameters, and if
// so its value.
func (e *Expr) Constant() (float64, bool) {
	if len(e.Vars()) > 0 {
		return 0, false
	}
	v, err := e.Eval(nil)
	if err != nil {
		return 0, false
	}
	return v, true
}

// maxNesting bounds how deeply an expression nests. Every parenthesized
// group, unary minus, function call and binary operator application
// opens one level around what it contains, so a flat sum of n terms
// nests n levels, like the left-deep tree it parses to. Parsing,
// evaluation and rendering all recurse once per level; the cap keeps a
// hostile document from driving them a million frames deep. Model rate
// expressions nest at most six levels.
const maxNesting = 1000

// parser is a Pratt (precedence-climbing) parser.
type parser struct {
	lex *lexer
	cur token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

// infixPower returns the binding powers of the binary operator whose
// token text is op; '^' is right-associative and binds tightest.
func infixPower(op string) (left, right int, ok bool) {
	switch op {
	case "+", "-":
		return 1, 2, true
	case "*", "/":
		return 3, 4, true
	case "^":
		return 6, 5, true // right associative
	}
	return 0, 0, false
}

// unaryPower is the binding power a unary minus parses its operand at:
// tighter than '*' and '/', looser than '^'.
const unaryPower = 5

// parseExpr parses an expression whose operators bind at least minPower,
// depth levels below the root.
func (p *parser) parseExpr(minPower, depth int) (Node, error) {
	if depth > maxNesting {
		return nil, &SyntaxError{Pos: p.cur.pos, Message: fmt.Sprintf("expression nests deeper than %d levels", maxNesting)}
	}
	left, err := p.parsePrefix(depth)
	if err != nil {
		return nil, err
	}
	for {
		lp, rp, ok := infixPower(p.cur.text)
		if !ok || lp < minPower {
			return left, nil
		}
		op := p.cur.text[0]
		if err := p.advance(); err != nil {
			return nil, err
		}
		// The new node pushes everything parsed so far one level down.
		depth++
		right, err := p.parseExpr(rp, depth)
		if err != nil {
			return nil, err
		}
		left = &binaryNode{op: op, left: left, right: right}
	}
}

func (p *parser) parsePrefix(depth int) (Node, error) {
	for p.cur.kind == tokPlus { // unary plus is a no-op
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	switch p.cur.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(p.cur.text, 64)
		if err != nil {
			return nil, &SyntaxError{Pos: p.cur.pos, Message: fmt.Sprintf("malformed number %q", p.cur.text)}
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return numberNode(v), nil
	case tokIdent:
		name := p.cur.text
		pos := p.cur.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.kind == tokLParen {
			return p.parseCall(name, pos, depth)
		}
		return varNode(name), nil
	case tokMinus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseExpr(unaryPower, depth+1)
		if err != nil {
			return nil, err
		}
		return &unaryNode{op: '-', expr: inner}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseExpr(0, depth+1)
		if err != nil {
			return nil, err
		}
		if p.cur.kind != tokRParen {
			return nil, &SyntaxError{Pos: p.cur.pos, Message: fmt.Sprintf("expected ')', found %s", p.cur.kind)}
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, &SyntaxError{Pos: p.cur.pos, Message: fmt.Sprintf("expected expression, found %s", p.cur.kind)}
	}
}

func (p *parser) parseCall(name string, pos, depth int) (Node, error) {
	fn, known := builtins[name]
	if err := p.advance(); err != nil { // consume '('
		return nil, err
	}
	var args []Node
	if p.cur.kind != tokRParen {
		for {
			a, err := p.parseExpr(0, depth+1)
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.cur.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.cur.kind != tokRParen {
		return nil, &SyntaxError{Pos: p.cur.pos, Message: fmt.Sprintf("expected ')', found %s", p.cur.kind)}
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if !known {
		return nil, &SyntaxError{Pos: pos, Message: fmt.Sprintf("unknown function %q (have %s)", name, strings.Join(Functions(), ", "))}
	}
	if len(args) != fn.arity {
		return nil, &SyntaxError{Pos: pos, Message: fmt.Sprintf("%s takes %d argument(s), got %d", name, fn.arity, len(args))}
	}
	return &callNode{name: name, args: args}, nil
}
