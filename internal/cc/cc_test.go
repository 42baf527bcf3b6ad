package cc

import (
	"regexp"
	"strings"
	"testing"

	"asbr/internal/cpu"
)

// runMiniC compiles and runs src, returning the print() output.
func runMiniC(t *testing.T, src string) []int32 {
	t.Helper()
	prog, err := CompileToProgram(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	c := cpu.MustNew(cpu.Config{}, prog)
	if _, err := c.Run(); err != nil {
		asmText, _ := Compile(src)
		t.Fatalf("run: %v\nassembly:\n%s", err, asmText)
	}
	return c.Output
}

func expectOutput(t *testing.T, src string, want ...int32) {
	t.Helper()
	got := runMiniC(t, src)
	if len(got) != len(want) {
		t.Fatalf("output = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output = %v, want %v", got, want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	expectOutput(t, `
void main() {
	print(2 + 3 * 4);
	print((2 + 3) * 4);
	print(7 / 2);
	print(-7 / 2);
	print(7 % 3);
	print(1 << 10);
	print(-16 >> 2);
	print(0x0f & 0x3c);
	print(0x0f | 0x30);
	print(0x0f ^ 0x3c);
	print(~0);
	print(-(5));
}`, 14, 20, 3, -3, 1, 1024, -4, 0xc, 0x3f, 0x33, -1, -5)
}

func TestVariablesAndAssignment(t *testing.T) {
	expectOutput(t, `
void main() {
	int x = 10;
	int y;
	y = x + 5;
	x = y = y + 1; /* chained */
	print(x);
	print(y);
	x += 4; print(x);
	x -= 2; print(x);
	x *= 3; print(x);
	x /= 6; print(x);
	x %= 5; print(x);
	x <<= 3; print(x);
	x >>= 1; print(x);
	x |= 0x10; print(x);
	x &= 0x1c; print(x);
	x ^= 0xff; print(x);
	x++; print(x);
	x--; x--; print(x);
}`, 16, 16, 20, 18, 54, 9, 4, 32, 16, 16, 16, 0xef, 0xf0, 0xee)
}

func TestComparisons(t *testing.T) {
	expectOutput(t, `
void main() {
	int a = 3; int b = 5;
	print(a < b); print(b < a);
	print(a <= 3); print(a <= 2);
	print(b > a); print(a > b);
	print(a >= 3); print(a >= 4);
	print(a == 3); print(a == b);
	print(a != b); print(a != 3);
	print(!a); print(!0);
}`, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1)
}

func TestControlFlow(t *testing.T) {
	expectOutput(t, `
void main() {
	int i;
	int sum = 0;
	for (i = 1; i <= 10; i++) sum += i;
	print(sum);
	int n = 0;
	while (n < 5) n = n + 2;
	print(n);
	int k = 10;
	do { k--; } while (k > 7);
	print(k);
	if (sum == 55) print(1); else print(0);
	if (sum != 55) print(1); else print(0);
	int j = 0;
	for (;;) { j++; if (j == 4) break; }
	print(j);
	int evens = 0;
	for (i = 0; i < 10; i++) { if (i % 2) continue; evens++; }
	print(evens);
}`, 55, 6, 7, 1, 0, 4, 5)
}

func TestLogicalOps(t *testing.T) {
	expectOutput(t, `
int calls;
int truthy() { calls++; return 1; }
int falsy() { calls++; return 0; }
void main() {
	print(1 && 2);
	print(1 && 0);
	print(0 || 3);
	print(0 || 0);
	/* short circuit: rhs not evaluated */
	calls = 0;
	int r = falsy() && truthy();
	print(r); print(calls);
	calls = 0;
	r = truthy() || falsy();
	print(r); print(calls);
}`, 1, 0, 1, 0, 0, 1, 1, 1)
}

func TestTernary(t *testing.T) {
	expectOutput(t, `
void main() {
	int a = 5;
	print(a > 3 ? 100 : 200);
	print(a > 7 ? 100 : 200);
	print(a > 3 ? a > 4 ? 1 : 2 : 3);
	int b = (a == 5) ? (a = 7) : 0; /* arm with side effect */
	print(a); print(b);
}`, 100, 200, 1, 7, 7)
}

func TestGlobalsAndArrays(t *testing.T) {
	expectOutput(t, `
int g = 42;
int zeros[4];
int table[] = {10, 20, 30};
int big[8] = {1, 2};
void main() {
	print(g);
	g = g + 1;
	print(g);
	print(zeros[2]);
	print(table[0] + table[1] + table[2]);
	table[1] = 99;
	print(table[1]);
	print(big[1]);
	print(big[7]);
	int i;
	int sum = 0;
	for (i = 0; i < 3; i++) sum += table[i];
	print(sum);
}`, 42, 43, 0, 60, 99, 2, 0, 10+99+30)
}

func TestPointers(t *testing.T) {
	expectOutput(t, `
int arr[] = {5, 6, 7, 8};
int g = 3;
void bump(int *p) { *p = *p + 1; }
int sum(int *a, int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i++) s += a[i];
	return s;
}
void main() {
	int *p = arr;
	print(*p);
	print(*(p + 2));
	print(p[3]);
	p = p + 1;
	print(*p);
	*p = 60;
	print(arr[1]);
	bump(&g);
	print(g);
	int local = 9;
	bump(&local);
	print(local);
	print(sum(arr, 4));
	int *q = &arr[2];
	print(q - arr);
	print(*q);
}`, 5, 7, 8, 6, 60, 4, 10, 5+60+7+8, 2, 7)
}

func TestFunctions(t *testing.T) {
	expectOutput(t, `
int add(int a, int b) { return a + b; }
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int many(int a, int b, int c, int d, int e, int f) {
	return a + 10*b + 100*c + 1000*d + 10000*e + 100000*f;
}
void noret() { print(777); }
void main() {
	print(add(2, 3));
	print(fib(10));
	print(many(1, 2, 3, 4, 5, 6));
	noret();
	print(add(add(1, 2), add(3, 4)));
}`, 5, 55, 654321, 777, 10)
}

func TestCallPreservesLiveTemps(t *testing.T) {
	// Expression with a call in the middle: earlier operands must
	// survive the call (spill/restore path).
	expectOutput(t, `
int id(int x) { return x; }
void main() {
	int a = 100;
	print(a + id(20) + a * id(2));
	print(id(1) + id(2) + id(3) + id(4));
}`, 320, 10)
}

func TestCharLiteralsAndPutchar(t *testing.T) {
	prog, err := CompileToProgram(`
void main() {
	putchar('H');
	putchar('i');
	putchar('\n');
	print('A');
}`)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.Config{}, prog)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if string(c.OutputStr) != "Hi\n" {
		t.Fatalf("chars = %q", c.OutputStr)
	}
	if len(c.Output) != 1 || c.Output[0] != 'A' {
		t.Fatalf("ints = %v", c.Output)
	}
}

// TestEscapedQuoteCharLiteral checks that an escaped quote does not end
// a char literal.
func TestEscapedQuoteCharLiteral(t *testing.T) {
	prog, err := CompileToProgram(`
void main() {
	putchar('\'');
	putchar('\\');
	putchar('"');
	print('\'' + 1);
}`)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.Config{}, prog)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if string(c.OutputStr) != `'\"` {
		t.Fatalf("chars = %q", c.OutputStr)
	}
	if len(c.Output) != 1 || c.Output[0] != '\''+1 {
		t.Fatalf("ints = %v", c.Output)
	}
	for _, bad := range []string{`'\'`, `''`, `'ab'`} {
		if _, err := Compile("void main() { putchar(" + bad + "); }"); err == nil {
			t.Errorf("char literal %s compiled", bad)
		}
	}
}

func TestExitBuiltin(t *testing.T) {
	prog, err := CompileToProgram(`
void main() {
	exit(42);
	print(1); /* unreachable */
}`)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.Config{}, prog)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.ExitCode() != 42 {
		t.Fatalf("exit = %d", c.ExitCode())
	}
	if len(c.Output) != 0 {
		t.Fatalf("output after exit: %v", c.Output)
	}
}

func TestScoping(t *testing.T) {
	expectOutput(t, `
int x = 1;
void main() {
	print(x);
	int x = 2;
	print(x);
	{
		int x = 3;
		print(x);
	}
	print(x);
	int i;
	for (i = 0; i < 1; i++) {
		int x = 9;
		print(x);
	}
	print(x);
}`, 1, 2, 3, 2, 9, 2)
}

func TestConstantFolding(t *testing.T) {
	asmText, err := Compile(`
void main() {
	print(2 * 3 + 4);
	print((1 << 4) | 3);
}`)
	if err != nil {
		t.Fatal(err)
	}
	folded10, _ := regexp.MatchString(`li t\d, 10\b`, asmText)
	folded19, _ := regexp.MatchString(`li t\d, 19\b`, asmText)
	if !folded10 || !folded19 {
		t.Errorf("constants not folded:\n%s", asmText)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"undefined var":     `void main() { x = 1; }`,
		"undefined func":    `void main() { f(); }`,
		"dup local":         `void main() { int a; int a; }`,
		"dup global":        "int a;\nint a;\nvoid main() {}",
		"dup func":          "void f() {}\nvoid f() {}\nvoid main() {}",
		"arg count":         "int f(int a) { return a; }\nvoid main() { f(1, 2); }",
		"void as value":     "void f() {}\nvoid main() { int a = f(); }",
		"return from void":  `void main() { return 3; }`,
		"no return value":   `int main() { return; }`,
		"break outside":     `void main() { break; }`,
		"continue outside":  `void main() { continue; }`,
		"assign to array":   "int a[3];\nvoid main() { a = 0; }",
		"assign to literal": `void main() { 3 = 4; }`,
		"deref int":         `void main() { int a; print(*a); }`,
		"index int":         `void main() { int a; print(a[0]); }`,
		"addr of rvalue":    `void main() { int *p = &(1+2); }`,
		"bad array size":    "int a[0];\nvoid main() {}",
		"too many inits":    "int a[1] = {1, 2};\nvoid main() {}",
		"unterminated":      `void main() { print(1);`,
		"bad token":         `void main() { print(@); }`,
		"void condition":    "void f() {}\nvoid main() { if (f()) print(1); }",
	}
	for name, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("%s: compile succeeded for %q", name, src)
		}
	}
}

func TestCompileErrorHasLine(t *testing.T) {
	_, err := Compile("void main() {\n\tint a;\n\tb = 1;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	ce, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if ce.Line != 3 {
		t.Errorf("line = %d, want 3", ce.Line)
	}
}

func TestComments(t *testing.T) {
	expectOutput(t, `
// line comment
/* block
   comment */
void main() {
	print(1); // trailing
	/* inline */ print(2);
}`, 1, 2)
}

func TestDeepExpressionError(t *testing.T) {
	// Build an expression requiring more than 10 live temporaries:
	// right-nested additions force one register per pending operand.
	var b strings.Builder
	b.WriteString("void main() { print(")
	for i := 0; i < 12; i++ {
		b.WriteString("1+(")
	}
	b.WriteString("x") // also undefined, but depth errors first or either way it must fail
	for i := 0; i < 12; i++ {
		b.WriteString(")")
	}
	b.WriteString("); }")
	if _, err := Compile(b.String()); err == nil {
		t.Fatal("deep expression accepted")
	}
}

func TestGlobalMultiDeclarators(t *testing.T) {
	expectOutput(t, `
int a = 1, b = 2, c;
void main() { print(a + b + c); }`, 3)
}

func TestHexAndNegativeConstants(t *testing.T) {
	expectOutput(t, `
int big = 0x7fffffff;
void main() {
	print(big);
	print(big + 1);      /* wraps to INT_MIN */
	print(-2147483647 - 1);
	print(0xffff);
	print(65536 * 32768); /* wraps */
}`, 2147483647, -2147483648, -2147483648, 65535, -2147483648)
}

func TestWhileWithComplexCondition(t *testing.T) {
	// The quan() shape from G.721: linear table search with a
	// compound condition.
	expectOutput(t, `
int table[] = {1, 2, 4, 8, 16, 32, 64, 128};
int quan(int val, int size) {
	int i;
	for (i = 0; i < size; i++)
		if (val < table[i])
			break;
	return i;
}
void main() {
	print(quan(0, 8));
	print(quan(1, 8));
	print(quan(7, 8));
	print(quan(100, 8));
	print(quan(1000, 8));
}`, 0, 1, 3, 7, 8)
}
