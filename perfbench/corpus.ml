(** The benchmark's inputs: hand-written programs with their known
    answers, and the seeded generators the workloads draw from. The
    program under test receives only these generated sources. *)

(** A whole program whose [main] returns [expect]. *)
type program = { name : string; src : string; expect : int32 option }

(** Two separately compiled units and the call that links them. *)
type pair = {
  pair_name : string;
  units : string list;
  entry : string;
  args : int32 list;
  pair_expect : int32;
}

(* The four programs of examples/c, copied so that the benchmark's
   inputs and answers cannot drift from each other. *)
let calls =
  {|int wide(int a, int b, int c, int d, int e, int f, int g, int h) {
  return (a - b) * 2 + (c - d) * 3 + (e - f) * 5 + (g - h) * 7;
}
int apply(int (*op)(int, int), int x, int y) { return op(x, y); }
int add(int x, int y) { return x + y; }
int sub(int x, int y) { return x - y; }
int main(void) {
  int w = wide(9, 4, 12, 5, 30, 11, 7, 2);
  int s = apply(add, w, 10) + apply(sub, w, 3);
  return s - w;
}|}

let fib =
  {|int fib_rec(int n) {
  if (n < 2) return n;
  return fib_rec(n - 1) + fib_rec(n - 2);
}
int fib_iter(int n) {
  int a = 0;
  int b = 1;
  int i;
  for (i = 0; i < n; i = i + 1) {
    int t = a + b;
    a = b;
    b = t;
  }
  return a;
}
int main(void) {
  int n;
  int bad = 0;
  for (n = 0; n < 15; n = n + 1) {
    if (fib_rec(n) != fib_iter(n)) bad = bad + 1;
  }
  return bad == 0 ? fib_iter(15) : -1;
}|}

let matmul =
  {|int a[3][3] = { { 1, 2, 3 }, { 4, 5, 6 }, { 7, 8, 9 } };
int b[3][3] = { { 9, 8, 7 }, { 6, 5, 4 }, { 3, 2, 1 } };
int c[3][3];
int main(void) {
  int i;
  int j;
  int k;
  for (i = 0; i < 3; i = i + 1)
    for (j = 0; j < 3; j = j + 1) {
      int acc = 0;
      for (k = 0; k < 3; k = k + 1) acc = acc + a[i][k] * b[k][j];
      c[i][j] = acc;
    }
  int trace = 0;
  for (i = 0; i < 3; i = i + 1) trace = trace + c[i][i];
  return trace;
}|}

let sieve =
  {|char composite[100];
int main(void) {
  int i;
  int j;
  int count = 0;
  for (i = 2; i < 100; i = i + 1) {
    if (!composite[i]) {
      count = count + 1;
      for (j = i + i; j < 100; j = j + i) composite[j] = 1;
    }
  }
  return count;
}|}

(* The sort+fib workload of bench/bench_main.ml. *)
let sortfib =
  {|int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int arr[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};
void sort(int *a, int n) {
  for (int i = 0; i < n; i++)
    for (int j = 0; j + 1 < n - i; j++)
      if (a[j] > a[j+1]) { int t = a[j]; a[j] = a[j+1]; a[j+1] = t; }
}
int checksum(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s = s * 31 + a[i];
  return s;
}
int wide(int a,int b,int c,int d,int e,int f,int g,int h) {
  return a+b+c+d+e+f+g+h;
}
int sq(int x) { return x * x; }
int iter(int n, int acc) { if (n == 0) return acc; return iter(n - 1, acc + sq(n)); }
int main(void) {
  sort(arr, 16);
  return checksum(arr, 16) + fib(12) + wide(1,2,3,4,5,6,7,8) + iter(50, 0);
}|}

let hand_written =
  [
    { name = "calls"; src = calls; expect = Some 168l };
    { name = "fib"; src = fib; expect = Some 610l };
    { name = "matmul"; src = matmul; expect = Some 189l };
    { name = "sieve"; src = sieve; expect = Some 25l };
    { name = "sortfib"; src = sortfib; expect = Some 1903826405l };
  ]

(** The paper's Fig. 1 (mult/sqr) and the helper/driver pair of the
    Fig. 5 experiment: sqr(3) = 9, driver(50) = 50 * (0 + ... + 19). *)
let pairs =
  [
    {
      pair_name = "fig1";
      units =
        [ "int mult(int n, int p) { return n * p; }";
          "int mult(int n, int p); int sqr(int n) { return mult(n, n); }" ];
      entry = "sqr";
      args = [ 3l ];
      pair_expect = 9l;
    };
    {
      pair_name = "fig5";
      units =
        [ "int helper(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; \
           return s; }";
          "int helper(int n); int driver(int k) { int s = 0; for (int i = 0; \
           i < k; i++) s += helper(20); return s; }" ];
      entry = "driver";
      args = [ 50l ];
      pair_expect = 9500l;
    };
  ]

(** The [i]-th draw of [Fuzz.Gen.gen_program] under [seed]. *)
let generated ~seed i : program =
  let rand = Random.State.make [| seed; 104729; i |] in
  {
    name = Printf.sprintf "gen%d" i;
    src = QCheck.Gen.generate1 ~rand Fuzz.Gen.gen_program;
    expect = None;
  }

(* ------------------------------------------------------------------ *)
(* Straight-line functions                                            *)
(* ------------------------------------------------------------------ *)

(** Locals of a straight-line function. All of them stay live to the
    final return, so most of them spill. *)
let straight_locals = 20

(** A function of [k] straight-line statements over [straight_locals]
    locals, called from [main] with seeded arguments. The answer comes
    from evaluating the same statements here, in 32-bit arithmetic. *)
let straight ~seed ~k ~variant : program =
  let rand = Random.State.make [| seed; 7919; k; variant |] in
  let args = Array.init 4 (fun _ -> Int32.of_int (Random.State.int rand 1000)) in
  (* Every local depends on an argument, so constant propagation cannot
     fold the body away. *)
  let v = Array.init straight_locals (fun i -> Int32.add args.(i mod 4) (Int32.of_int (i * 37))) in
  let b = Buffer.create (k * 24) in
  Buffer.add_string b "int big(int a0, int a1, int a2, int a3) {\n";
  for i = 0 to straight_locals - 1 do
    Printf.bprintf b "  int x%d = a%d + %d;\n" i (i mod 4) (i * 37)
  done;
  for _ = 1 to k do
    let d = Random.State.int rand straight_locals in
    let x = Random.State.int rand straight_locals in
    let y = Random.State.int rand straight_locals in
    let c = Int32.of_int (Random.State.int rand 200 - 100) in
    let op, f =
      match Random.State.int rand 7 with
      | 0 -> ("+", Int32.add)
      | 1 -> ("-", Int32.sub)
      | 2 -> ("*", Int32.mul)
      | 3 -> ("^", Int32.logxor)
      | 4 -> ("&", Int32.logand)
      | 5 -> ("|", Int32.logor)
      | _ -> ("+", Int32.add)
    in
    if Random.State.bool rand then begin
      Printf.bprintf b "  x%d = x%d %s x%d;\n" d x op y;
      v.(d) <- f v.(x) v.(y)
    end
    else begin
      Printf.bprintf b "  x%d = x%d %s %ld;\n" d x op c;
      v.(d) <- f v.(x) c
    end
  done;
  Buffer.add_string b "  return ";
  let acc = ref 0l in
  for i = 0 to straight_locals - 1 do
    if i > 0 then Buffer.add_string b " + ";
    Printf.bprintf b "x%d" i;
    acc := Int32.add !acc v.(i)
  done;
  Buffer.add_string b ";\n}\n";
  Printf.bprintf b "int main(void) { return big(%ld, %ld, %ld, %ld); }\n"
    args.(0) args.(1) args.(2) args.(3);
  {
    name = Printf.sprintf "straight-k%d-v%d" k variant;
    src = Buffer.contents b;
    expect = Some !acc;
  }
