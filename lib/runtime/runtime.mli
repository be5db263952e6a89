(** The Wasm engine: instances, memory management, transitions.

    Ties the pieces together the way a production runtime does (§4, §5):
    compiled code from {!Sfi_core.Codegen} is loaded into a
    {!Sfi_machine.Machine}; each instance gets an instance context (vmctx,
    addressed through [%fs]), a host stack, and a linear-memory slot —
    either a private 4 GiB + guard reservation ([`Simple]) or a slot in a
    ColorGuard-striped pool ([`Pool]).

    Transitions into and out of an instance model §6.4.1: entering executes
    the compiled entry sequence (segment-base write, and under ColorGuard
    the [wrpkru] domain switch) plus a fixed overhead for the stack switch
    and exception-handler bookkeeping; leaving restores the host PKRU
    (charging the second [wrpkru]) and the same fixed overhead. *)

type engine
type instance

type trap = Sfi_x86.Ast.trap_kind

(** {1 Faults}

    Sandbox misbehavior is a typed, recoverable condition — never a bare
    [Failure] escaping to the host. A faulting instance is killed and its
    slot recycled; the engine keeps serving. *)

type fault =
  | Trap of trap  (** the sandbox executed a trapping instruction *)
  | Fuel_exhausted  (** watchdog: the call overran its fuel deadline *)
  | Pool_exhausted  (** no free slot in the pool *)
  | Instance_dead  (** the instance was killed by an earlier fault *)

exception Fault of fault
(** Raised only by the non-[result] entry points ({!instantiate},
    {!invoke} on fuel exhaustion); {!invoke_protected} and
    {!try_instantiate} return faults as values. *)

val fault_name : fault -> string

type allocator =
  | Simple of { reservation : int }
      (** one private reservation per instance (base stride
          [reservation + 4 GiB] guard), the classic layout of §2 *)
  | Pool of Sfi_core.Pool.layout
      (** Wasmtime-style pooling, optionally ColorGuard-striped *)

val slab_base : int
(** Base address of the linear-memory slab (32 GiB). Slot 0's heap starts
    here; the LFI backend overlays its code region on it so one register
    can base both code and data. *)

val hostcall_halt : int
(** Hostcall id that terminates execution (used by LFI's halt
    trampoline). *)

val create_engine :
  ?cost:Sfi_machine.Cost.t ->
  ?tlb:Sfi_vmem.Tlb.config ->
  ?fsgsbase_available:bool ->
  ?allocator:allocator ->
  ?retry_queue_capacity:int ->
  ?code_base:int ->
  ?engine:Sfi_machine.Machine.engine_kind ->
  Sfi_core.Codegen.compiled ->
  engine
(** Loads the program, maps the indirect-call tables, prepares the
    allocator, and bakes the module's pre-initialized image (data segments
    + vmctx template) that every instantiation maps copy-on-write.
    [allocator] defaults to [Simple] with a 4 GiB reservation;
    [retry_queue_capacity] (default 64) bounds the tickets {!admit} may
    park. A transition direction costs a fixed 55 cycles of stack-switch,
    exception-handler and ABI work (sec 6.4.1) besides the entry sequence's
    own instructions; the [Pure] and [Readonly] hostcall springboards cost
    10 and 24 cycles. [engine] selects the machine's execution
    engine (default {!Sfi_machine.Machine.Adaptive}, the same engine as
    [Tier2]: every eligible basic block is promoted to a superblock when
    the program is loaded — observationally identical to [Threaded]). *)

val machine : engine -> Sfi_machine.Machine.t
val space : engine -> Sfi_vmem.Space.t
val compiled : engine -> Sfi_core.Codegen.compiled

(** {1 Tracing}

    The runtime emits structured events into a {!Sfi_trace.Trace.t} sink:
    per-sandbox transition spans ([call] begin/end around every invoke,
    closed on trap and watchdog kill too), per-class [hostcall] instants
    with their modeled cycle cost, lifecycle events ([instantiate.cold] /
    [instantiate.warm] / [recycle] / [kill]), and [fault] instants
    carrying {!last_fault_info}'s address attribution. Attaching a sink
    also wires the machine (pkru writes, fuel checkpoints, dTLB
    fill/evict) to it. The default sink is {!Sfi_trace.Trace.null}: every
    emission site reduces to one load-and-branch, and trace emission
    never perturbs counters or architectural state. *)

val trace : engine -> Sfi_trace.Trace.t
val set_trace : engine -> Sfi_trace.Trace.t -> unit

(** How much boundary work a hostcall actually needs (Kolosick et al.,
    {e Isolation Without Taxation}), declared at registration:
    - [Pure]: touches no sandbox memory and cannot fault — direct call
      through a minimal springboard; no stack switch, no PKRU write.
    - [Readonly]: may read sandbox memory; runs on the sandbox stack under
      the sandbox's own PKRU image (pkey 0 keeps the host block
      reachable), so both [wrpkru]s are elided.
    - [Full]: the general case — stack switch, exception-handler setup,
      and under ColorGuard a PKRU write each way. *)
type hostcall_class = Pure | Readonly | Full

val register_import :
  ?clazz:hostcall_class -> engine -> string -> (instance -> int64 array -> int64) -> unit
(** Provide a host (WASI-style) function for a module import; arity comes
    from the import's type. Calls transition out of the sandbox, charged
    according to [clazz] (default [Full], the conservative price). *)

(** {1 Instances} *)

val instantiate : engine -> instance
(** Allocate the next free slot and bring it up copy-on-write: the slot's
    heap and host block are backed by the engine's baked module image
    (data segments, vmctx template), so instantiation performs only O(1)
    per-slot vmctx writes — a cold slot additionally maps its host block
    and registers the backing. Raises {!Fault}[ Pool_exhausted] when no
    slot is free, [Failure] if mapping fails. *)

val try_instantiate : engine -> (instance, fault) result
(** Like {!instantiate} but returns [Error Pool_exhausted] instead of
    raising. *)

val waiting : engine -> int
(** Tickets currently parked in the admission queue, with or without a
    controller armed. *)

val num_slots : engine -> int
(** Slot-pool capacity of the engine ([4096] for the [Simple]
    allocator). *)

(** {1 Admission}

    One bounded FIFO ticket queue over the slot pool. With no controller
    armed, {!admit} serves it in plain FIFO order and sheds only when it
    is full. Arming a controller ({!set_admission}) adds a CoDel-style
    controlled-delay law and a token-bucket rate limiter per tenant. The
    controller runs at {e dequeue}, so the load it sheds is the load that
    waited longest — the slowest requests — never random arrivals. Time
    is the caller's simulated clock (nanoseconds), passed on every
    {!admit}. *)

type admission_config = Rt_types.admission_config = {
  target_delay_ns : float;
      (** CoDel target sojourn: queueing delay the controller tries to
          keep head-of-line sojourn below. *)
  interval_ns : float;
      (** How long sojourn must stay above target before the controller
          starts shedding; successive sheds tighten as interval/√n. *)
  ticket_deadline_ns : float;
      (** Hard per-ticket sojourn bound — a ticket parked longer than
          this is shed unconditionally on its next presentation. *)
  tenant_rate : float;  (** bucket refill, tokens per simulated second *)
  tenant_burst : float;  (** bucket capacity, [>= 1] *)
}

val default_admission : admission_config
(** 100 µs target, 500 µs interval, 2 ms ticket deadline, 10k req/s per
    tenant with a burst of 16. *)

type shed_reason =
  | Shed_sojourn  (** CoDel control law or the hard ticket deadline *)
  | Shed_rate_limited  (** the tenant's token bucket was empty *)
  | Shed_queue_full  (** the admission queue is at [retry_queue_capacity] *)

val shed_reason_code : shed_reason -> int
(** Stable wire code ([0]/[1]/[2]) matching the trace-event reason. *)

val shed_reason_name : shed_reason -> string

val set_admission : engine -> admission_config option -> unit
(** Arm (or with [None] disarm) the admission controller. Arming resets
    the controller state (sojourn law, token buckets, pressure); tickets
    already parked stay parked in FIFO order either way. Raises
    [Invalid_argument] on non-positive parameters. *)

val set_admission_pressure : engine -> float -> unit
(** Scale the armed controller's target and deadline by [factor]
    ([0 < factor <= 1]; [1.0] restores normal service). The degradation
    ladder uses this to tighten admission under sustained overload.
    No-op when admission is not armed. *)

val set_slot_reserve : engine -> int -> unit
(** Withhold [n] slots from allocation — {!instantiate} behaves as if
    the pool were [n] slots smaller. The degradation ladder uses this to
    shrink the warm pool, keeping headroom for recycling bursts. Raises
    [Invalid_argument] unless [0 <= n < max_slots]. *)

val admit :
  engine ->
  ticket:int ->
  tenant:int ->
  now:float ->
  [ `Ready of instance | `Wait | `Shed of shed_reason ]
(** Present [ticket] (owned by [tenant]) for admission at simulated time
    [now]. A new arrival at an empty queue with a free slot is granted it
    ([`Ready]); otherwise it is parked ([`Wait]), or shed
    ([`Shed Shed_queue_full]) when [retry_queue_capacity] tickets are
    already parked — the capacity counts parked tickets only. Parked
    tickets are re-presented, and only the queue head may claim a freed
    slot. With a controller armed, a new arrival first takes a token from
    its tenant's bucket ([`Shed Shed_rate_limited] when empty), and a
    parked ticket is shed ([`Shed Shed_sojourn]) past the ticket deadline
    or, at the head, by the CoDel law. A shed ticket is forgotten —
    re-presenting it counts as a new arrival. Emits admission trace events
    and bumps the [m_admitted]/[m_adm_*] metrics either way. *)

val release : instance -> unit
(** Recycle the instance's slot: drop only the pages this tenant actually
    dirtied — heap {e and} host block (vmctx page + host stack), so nothing
    leaks to the next tenant — reverting them to the pristine module image,
    and return the slot to the allocator's free list. O(dirty pages), not
    O(heap size); MPK colors survive in the PTEs (the §7 contrast with
    MTE). *)

val kill : instance -> unit
(** Crash-recovery teardown: drop the tenant's dirty pages as {!release}
    does, fence every page the slot ever mapped to PROT_NONE (so a stale
    activation faults rather than touching the next tenant), and recycle
    slot and color. Idempotent; the engine keeps serving other
    instances. *)

val live : instance -> bool
(** False once the instance has been released or killed. *)

val dirty_heap_pages : instance -> int
(** OS pages of this instance's heap privatized (written) since the slot
    was last recycled — the exact page count the next recycle will pay. *)

val instance_id : instance -> int
val heap_base : instance -> int
val color : instance -> int
val memory_pages : instance -> int

val read_memory : instance -> addr:int -> len:int -> string
val write_memory : instance -> addr:int -> string -> unit

(** {1 Calls} *)

val invoke : ?fuel:int -> instance -> string -> int64 list -> (int64, trap) result
(** Call an export; the result is the raw 64-bit return register (0 for
    void functions). Raises [Not_found] for unknown exports, {!Fault} on
    fuel exhaustion or a dead instance. The instance survives a trap (the
    caller decides); use {!invoke_protected} for crash-recovery
    semantics. *)

val invoke_protected : ?fuel:int -> instance -> string -> int64 list -> (int64, fault) result
(** Fault-containing call: any sandbox misbehavior (trap, fuel exhaustion)
    kills the instance, recycles its slot, and comes back as [Error] —
    nothing sandbox-attributable escapes as a host exception. *)

(** {2 Epoch-style preemptible calls (§6.4.3)} *)

type activation

val start_call : ?deadline_fuel:int -> instance -> string -> int64 list -> activation
(** [deadline_fuel] arms the watchdog: once the activation has consumed
    that much fuel across its epochs without finishing, the next {!step}
    kills the instance and reports [`Fault Fuel_exhausted]. *)

val step :
  activation ->
  fuel:int ->
  [ `Done of int64 | `Trapped of trap | `More | `Fault of fault ]
(** Run up to [fuel] instructions of the activation, saving/restoring the
    machine context around it — the user-level context switch. [`More]
    means the epoch expired; call {!step} again later. [`Trapped] kills
    the instance (slot recycled) before returning; [`Fault] reports a
    watchdog kill ([Fuel_exhausted]) or a stepped-after-death activation
    ([Instance_dead]). *)

(** {1 Fault attribution} *)

val last_fault_info : engine -> Sfi_machine.Machine.fault_info option
(** The faulting address/direction of the most recent access trap on this
    engine's machine, as a SIGSEGV handler would read from [siginfo_t]. *)

val attribute_address : engine -> int -> [ `Slot of int | `Guard of int | `Host ]
(** Attribute a virtual address to a linear-memory slot, the guard region
    after a slot, or host memory — turning a faulting address into "which
    tenant misbehaved". *)

(** {1 SFI sanitizer}

    A shadow policy over {!Sfi_machine.Machine.set_sanitizer}: while armed,
    every data access of the machine must land inside the current
    instance's own regions (heap slot up to its live memory bound, vmctx
    page, host stack, the shared indirect-call tables) and — under
    ColorGuard — run with exactly the sandbox's PKRU image; every indirect
    branch must resolve inside the code region. Accesses that trap are
    already contained and never consulted; the sanitizer exists to catch
    the accesses the hardware would silently allow (e.g. a neighbour's
    mapped page inside a deliberately weakened guard region). *)

type violation = {
  v_kind : [ `Read | `Write | `Branch ];
  v_addr : int;
  v_len : int;
  v_pc : int;  (** instruction index at the fault *)
  v_instr : string;  (** the faulting instruction, printed *)
  v_instr_count : int;  (** instructions retired when it fired *)
  v_attribution : [ `Slot of int | `Guard of int | `Host ];
  v_detail : string;
}

exception Sanitizer_violation of violation
(** Raised out of {!invoke} (and friends) at the faulting instruction. *)

val pp_violation : Format.formatter -> violation -> unit
val arm_sanitizer : engine -> unit
val disarm_sanitizer : engine -> unit

val read_global : instance -> int -> int64
(** Raw bits of global [i] in the instance's vmctx — the compiled-side
    counterpart of {!Sfi_wasm.Interp.global_value} for differential
    checks. *)

val vmctx_addr : instance -> int
(** Address of the instance's vmctx block (for harnesses that deliberately
    corrupt runtime state, e.g. the sanitizer self-test). *)

(** {1 Metrics} *)

val transitions : engine -> int
(** One-way transitions performed (in + out). *)

(** Immutable snapshot of the engine's lifecycle and transition counters,
    all monotonic until {!reset_metrics}. *)
type metrics = {
  m_transitions : int;  (** one-way sandbox crossings *)
  m_calls_pure : int;  (** hostcalls through the [Pure] springboard *)
  m_calls_readonly : int;  (** hostcalls through the [Readonly] springboard *)
  m_calls_full : int;  (** hostcalls through the full springboard *)
  m_pkru_writes_elided : int;
      (** [wrpkru]s a full transition would have executed but the fast path
          skipped (cheap-class hostcalls, unchanged-PKRU exits) *)
  m_pages_zeroed_on_recycle : int;  (** total dirty pages dropped by recycles *)
  m_instantiations_cold : int;  (** first-use slot bring-ups *)
  m_instantiations_warm : int;  (** recycled-slot reuses *)
  m_admitted : int;  (** slot grants through {!admit} *)
  m_adm_queued : int;  (** tickets parked in the admission queue *)
  m_shed_sojourn : int;  (** CoDel / ticket-deadline sheds *)
  m_shed_rate_limited : int;  (** per-tenant token-bucket sheds *)
  m_shed_queue_full : int;  (** queue-at-capacity sheds *)
}

val metrics : engine -> metrics

val elapsed_ns : engine -> float
val reset_metrics : engine -> unit

val domain_metrics : unit -> metrics
(** Aggregate of the same counters across {e every} engine the calling
    domain has exercised since the last {!reset_domain_metrics} —
    including engines created and discarded inside workload helpers
    (e.g. {!Sfi_workloads.Kernel.run}), which the caller never sees.
    This is what lets a bench harness attach a metrics snapshot to any
    experiment that runs an engine. *)

val reset_domain_metrics : unit -> unit

(** {2 Cross-domain harvest}

    The per-domain counters behind {!domain_metrics} live in
    [Domain.DLS], so they die with their worker domain: reading
    [domain_metrics ()] in a parent after [Domain.join] observes {e
    none} of the child's work. Any multi-domain harness must snapshot
    {!domain_metrics} {e inside} each worker (before the domain
    returns) and combine the snapshots with {!merged_metrics} — this is
    what the sharded FaaS layer ({!Sfi_faas.Shard}) does per shard. *)

val zero_metrics : metrics
(** All-zero snapshot — the identity of {!add_metrics}. *)

val add_metrics : metrics -> metrics -> metrics
(** Field-wise sum of two snapshots. *)

val merged_metrics : metrics list -> metrics
(** Field-wise sum of per-domain snapshots, each taken with
    {!domain_metrics} on the domain that did the work. *)

val metrics_fields : metrics -> (string * float) list
(** The snapshot as stable [(field, value)] pairs — one entry per
    counter, in declaration order. The naming backbone for exported
    gauges and flight-recorder snapshots. *)
