(* Deterministic tick budgets (the per-trial watchdog's fuel).

   A wall-clock watchdog would make campaign reports depend on machine
   speed and scheduling, breaking the byte-identical-across-[--jobs]
   contract; instead the engines spend one unit of fuel per simulation tick
   and raise {!Exhausted} when the budget runs dry.  The campaign layer
   converts a human-facing [--trial-timeout] into ticks at a fixed nominal
   rate, so two runs of the same campaign always time the same trials out
   at the same tick. *)

exception Exhausted

type t = { mutable remaining : int; limit : int }

(* [ticks n] is a budget of [n] simulation ticks; [n <= 0] is rejected
   (an unlimited run simply passes no budget). *)
let ticks n =
  if n <= 0 then invalid_arg "Budget.ticks: budget must be positive";
  { remaining = n; limit = n }

let limit b = b.limit
let remaining b = b.remaining

(* Spends one tick.  @raise Exhausted when no fuel is left. *)
let spend b =
  if b.remaining <= 0 then raise Exhausted;
  b.remaining <- b.remaining - 1

(* Spends [ticks] units at once — the batched driver's equivalent of [ticks]
   sequential {!spend}s: if fewer units remain, the budget is drained to
   exactly 0 (like a sequential run whose last successful spend left 0)
   before {!Exhausted} is raised.  @raise Exhausted as above. *)
let spend_bulk b ~ticks =
  if b.remaining >= ticks then b.remaining <- b.remaining - ticks
  else begin
    b.remaining <- 0;
    raise Exhausted
  end

(* Re-arms the budget to its full limit (one fresh sub-budget per shrink
   probe, without reallocating). *)
let refill b = b.remaining <- b.limit

(* Nominal simulated ticks per second used to convert [--trial-timeout]
   seconds into fuel.  Deliberately a constant, not a measurement: the
   conversion must be identical on every machine or reports would not be
   reproducible.  2e6 ticks/s is the right order of magnitude for the
   interpreter on small fuzzing pipelines (see docs/performance.md). *)
let nominal_ticks_per_second = 2_000_000

let of_seconds s =
  if s <= 0 then invalid_arg "Budget.of_seconds: timeout must be positive";
  ticks (s * nominal_ticks_per_second)
