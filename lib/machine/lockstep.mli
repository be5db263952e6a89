(** Lockstep differential validation of any ordered pair of execution
    engines.

    Builds two identically-configured machines from the caller's [make]
    thunk, runs each on one of the requested {!Machine.engine_kind}s
    (default {!Machine.Reference} vs {!Machine.Threaded}), advances both
    in [stride]-instruction slices ([run ~fuel:stride], default 1) and
    compares the full {!Machine.snapshot} — registers, flags, segment
    bases, PKRU, pc, and every performance counter including dTLB and
    dcache statistics — after each slice. The first disagreement is
    reported with the step number and field; agreement through termination
    proves the engines observationally identical on that program.

    A stride of 1 never lets the tiered engines enter a superblock (a
    block needs its whole slot budget up front), so strides > 1 are the
    interesting setting for [Tier2] (and [Adaptive], the same engine):
    every slice edge is a dispatch boundary at which batched charges must
    have converged with the per-instruction engines. *)

type divergence = {
  at_step : int;  (** instruction index at which the engines disagreed *)
  field : string;  (** snapshot field (or "status") that differs *)
  reference : string;  (** value under the first engine of the pair *)
  threaded : string;  (** value under the second engine of the pair *)
}

val run_pair :
  ?engines:Machine.engine_kind * Machine.engine_kind ->
  ?stride:int ->
  make:(unit -> Machine.t) ->
  entry:string ->
  ?fuel:int ->
  unit ->
  (Machine.status, divergence) result
(** [run_pair ~make ~entry ()] validates up to [fuel] (default 2^20)
    instructions. [make] must return a fully set-up machine — program
    loaded, stack mapped, registers/hostcall handler initialized — and is
    called twice, so it must not share mutable state (notably the
    {!Sfi_vmem.Space.t}) between calls. Returns the common final status, or
    the first divergence. Raises [Invalid_argument] if [stride <= 0]. *)

val pp_divergence : Format.formatter -> divergence -> unit
