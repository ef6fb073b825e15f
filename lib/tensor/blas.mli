(** Hand-written BLAS-like kernels on packed row-major Float32 buffers.

    This plays the role of Intel MKL in the paper: the compiler's
    pattern-matching phase rewrites synthesized dot-product loop nests
    into calls to {!gemm}, which is faster than the equivalent
    synthesized loops thanks to cache-aware loop ordering, unrolled
    inner loops and unboxed element access ({!Tensor.Raw}). The kernels
    allocate nothing.

    Conventions: matrices are packed row-major. [gemm] computes
    [C := alpha * op(A) * op(B) + beta * C] where [op(A)] is [m x k]
    and [op(B)] is [k x n]; [transa] means A is stored [k x m].

    {b Sparse path (zero multipliers).} Like reference-BLAS [xGEMM],
    the row-streaming orderings — {!gemm} with [transb = false] (NN and
    TN) and {!gemv} with [transa = true] — skip the whole B row (the
    A row, for {!gemv}) of every multiplier that compares equal to
    zero ([+0.0] or [-0.0]). Pool and ReLU gradients are mostly zero,
    so this skips most of the work of a backward GEMM. The product
    [0 * B[p,:]] is never formed, which is the one observable
    difference from {!gemm_naive}: where a zero element of op(A) meets
    a NaN or infinity in op(B), C keeps the value the other terms give
    it, while {!gemm_naive} yields NaN ([0 * inf] and [0 * nan] are NaN
    in IEEE arithmetic). On finite data the results agree, bit for bit
    when [alpha = 1] and [beta = 0]. NT and TT form every product. *)

type buffer = Tensor.buffer

val gemm :
  ?alpha:float ->
  ?beta:float ->
  transa:bool ->
  transb:bool ->
  m:int ->
  n:int ->
  k:int ->
  a:buffer ->
  ?off_a:int ->
  b:buffer ->
  ?off_b:int ->
  c:buffer ->
  ?off_c:int ->
  unit ->
  unit
(** Blocked implementation. The [off_*] arguments give flat offsets into
    the buffers so sub-matrices of larger workspaces can be addressed
    without copying. NN and TN take the sparse path described above.
    The same as {!gemm_rows} over every row, [lo = 0], [hi = m]. *)

val gemm_rows :
  alpha:float ->
  beta:float ->
  transa:bool ->
  transb:bool ->
  m:int ->
  n:int ->
  k:int ->
  a:buffer ->
  off_a:int ->
  b:buffer ->
  off_b:int ->
  c:buffer ->
  off_c:int ->
  lo:int ->
  hi:int ->
  unit
(** Rows [\[lo, hi)] of the [m x n] call {!gemm} makes with the same
    arguments: only those rows of C are scaled by [beta] and updated,
    and the operands keep the whole call's layout ([m] stays the row
    stride of a transposed A). Every ordering, TT included, gives each
    [C\[i,j\]] the same terms in the same [p] order whatever the range,
    so calls over disjoint ranges that cover [\[0, m)], in any order or
    concurrently, leave C bit-identical to the one whole call. This is
    how the runtime splits a GEMM across worker domains. Raises
    [Invalid_argument] unless [0 <= lo <= hi <= m]. *)

val gemm_naive :
  ?alpha:float ->
  ?beta:float ->
  transa:bool ->
  transb:bool ->
  m:int ->
  n:int ->
  k:int ->
  a:buffer ->
  ?off_a:int ->
  b:buffer ->
  ?off_b:int ->
  c:buffer ->
  ?off_c:int ->
  unit ->
  unit
(** Triple-loop reference used by the test suite to validate {!gemm}.
    Forms every product, so IEEE [0 * nan] and [0 * inf] propagate. *)

val gemv :
  transa:bool ->
  m:int ->
  n:int ->
  a:buffer ->
  x:buffer ->
  y:buffer ->
  unit
(** y := op(A) * x + y with A stored m x n row-major. With [transa] a
    zero [x.{i}] skips row [i] of A (the sparse path above). *)

val axpy : alpha:float -> n:int -> x:buffer -> y:buffer -> unit

val dot : n:int -> x:buffer -> y:buffer -> float

val scal : alpha:float -> n:int -> x:buffer -> unit

val gemm_flops : m:int -> n:int -> k:int -> float
(** 2*m*n*k, the canonical GEMM flop count used by the cost model. *)
