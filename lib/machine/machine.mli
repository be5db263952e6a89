(** The simulated x86-64 CPU.

    Executes {!Sfi_x86.Ast} programs against a {!Sfi_vmem.Space}, modeling
    exactly the architectural state the paper's optimizations manipulate:
    the 16 GPRs (32-bit writes zero-extend), FS/GS segment bases, PKRU, and
    a dTLB. Costs follow {!Cost}; performance counters expose cycles,
    instructions, code bytes fetched, and dTLB misses — the metrics behind
    Figures 3-7.

    Programs are loaded at a code base address; every instruction gets a
    byte address from {!Sfi_x86.Encode.layout}, so indirect control flow
    (and LFI's truncate-and-add-base sandboxing of it) runs over realistic
    addresses. *)

type t

type counters = {
  mutable instructions : int;
  mutable cycles : int;
  mutable loads : int;
  mutable stores : int;
  mutable code_bytes : int;  (** bytes fetched/decoded *)
  mutable seg_base_writes : int;  (** wrfsbase/wrgsbase executed *)
  mutable pkru_writes : int;  (** wrpkru executed *)
}

type status =
  | Halted  (** the entry function returned *)
  | Trapped of Sfi_x86.Ast.trap_kind
  | Yielded  (** fuel exhausted; {!run} may be called again to continue *)

type fault_info = { fault_addr : int; fault_write : bool }
(** Metadata for the most recent memory-access trap: the faulting virtual
    address and whether the access was a write. The runtime attributes the
    address to a slot, guard region, or host memory — the information a
    real SIGSEGV handler reads from [siginfo_t]. *)

exception Hostcall_exit of int
(** A hostcall handler may raise this to terminate the program (WASI
    [proc_exit]-style); {!run} returns [Halted]. *)

val create :
  ?cost:Cost.t ->
  ?tlb:Sfi_vmem.Tlb.config ->
  ?code_base:int ->
  ?fsgsbase_available:bool ->
  Sfi_vmem.Space.t ->
  t
(** [fsgsbase_available] (default true) selects between the user-level
    segment-base write cost and the [arch_prctl] syscall fallback cost —
    the old-CPU path Firefox must support (§4.1). *)

val space : t -> Sfi_vmem.Space.t
val cost_model : t -> Cost.t

(** {1 Program loading} *)

val load_program : t -> Sfi_x86.Ast.program -> unit
(** Replaces any previously loaded program. Raises [Invalid_argument] on
    duplicate labels and on a direct branch ([Jmp], [Jcc], [Call]) to a
    label the program does not define. Profiler samples collected against
    the replaced program are dropped and accounted in {!profile_dropped}
    (the histogram is resized for the new program). Under the [Tier2] engine,
    every eligible block of the new program is promoted immediately. *)

val label_address : t -> string -> int
(** Code byte address of a label (code_base + offset). Raises [Not_found]
    for unknown labels. Used to seed indirect-call tables. *)

val code_bounds : t -> int * int
(** [(base, length)] of the loaded program's code image. *)

(** {1 Architectural state} *)

val get_reg : t -> Sfi_x86.Ast.gpr -> int64
val set_reg : t -> Sfi_x86.Ast.gpr -> int64 -> unit
val get_seg_base : t -> Sfi_x86.Ast.seg -> int
val set_seg_base : t -> Sfi_x86.Ast.seg -> int -> unit
(** Host-side base write (no cycle charge; the in-program [Wrgsbase]
    instruction is the one that pays). *)

val get_pkru : t -> Sfi_vmem.Mpk.pkru
val set_pkru : t -> Sfi_vmem.Mpk.pkru -> unit

val set_hostcall_handler : t -> (t -> int -> unit) -> unit
(** Handler invoked by the [Hostcall n] instruction. Arguments/results are
    passed in registers by convention (the runtime defines it). *)

(** {1 Execution} *)

val start : t -> entry:string -> unit
(** Position the program counter at [entry] and push the halt sentinel
    return address. The caller must have set up RSP to a mapped stack. *)

type engine_kind =
  | Threaded
      (** pre-translated closure-threaded code; the default of {!create}
          (runtime engines default to [Adaptive]) *)
  | Reference  (** the original AST-matching interpreter *)
  | Tier2
      (** threaded code plus eager superblock promotion: every eligible
          basic block is fused into a single closure at load time (and on
          [set_engine]), with per-instruction counter updates batched into
          one charge per block *)
  | Adaptive
      (** profiler-driven tiering: blocks start on the threaded
          dispatcher and are promoted to superblocks between {!run}
          slices once the sampling profiler sees them go hot (see
          {!set_tier_config}) *)

val engine : t -> engine_kind
val set_engine : t -> engine_kind -> unit
(** Select the execution engine used by {!run}. All engines are
    observationally identical — same registers, flags, counters and traps
    — which {!Lockstep} validates instruction by instruction; [Reference]
    exists as the differential oracle and costs several times more host
    time per simulated instruction. Superblocks charge their fixed costs
    at block entry and roll back to the faulting instruction on a trap,
    so at every dispatch boundary (any [run ~fuel] slice edge) the
    {!snapshot} of a tiered machine is bit-identical to an untiered
    one. Selecting [Threaded] or [Reference] demotes every promoted
    block. *)

(** {1 Tier policy} *)

type tier_config = {
  threshold : int;  (** profiler samples in a block before promotion (default 8) *)
  stride : int;  (** fresh samples between promotion scans (default 256) *)
  min_len : int;  (** smallest block worth fusing, in dispatch slots (default 2) *)
}

val default_tier_config : tier_config
val tier_config : t -> tier_config

val set_tier_config : t -> tier_config -> unit
(** Tune the [Adaptive] promotion policy. Raises [Invalid_argument] if any
    knob is [<= 0]. Takes effect at the next promotion scan; already
    promoted blocks stay promoted. *)

type tier_stats = {
  blocks_total : int;  (** basic blocks in the loaded program *)
  blocks_promoted : int;  (** currently running as superblocks *)
  promotions : int;  (** lifetime promotions, across [load_program]s *)
  superblock_instructions : int;
      (** instructions retired inside superblocks (lifetime) — a host-side
          statistic, deliberately not part of {!snapshot} *)
}

val tier_stats : t -> tier_stats

val superblock_retired : t -> int
(** [superblock_instructions] without the record allocation, for per-request
    sampling on hot paths. *)

val run : t -> fuel:int -> status
(** Execute at most [fuel] instructions; returns [Yielded] if the budget
    ran out (epoch-style preemption, §6.4.3), [Halted] on return from the
    entry, or [Trapped]. *)

val retired_instructions : unit -> int
(** Simulated instructions retired by {!run} calls on the calling domain
    since the last {!reset_retired_instructions} — across all machines, so
    a bench harness can report instructions/sec per experiment even when
    experiments run on separate domains. *)

val reset_retired_instructions : unit -> unit

val execute : t -> entry:string -> ?fuel:int -> unit -> status
(** [start] + [run] with a large default budget (2^30 instructions). *)

val last_fault_info : t -> fault_info option
(** Metadata for the most recent access trap, or [None] if no access has
    trapped since the last {!start}. *)

(** {1 SFI sanitizer hook}

    A shadow-checker for escape detection: the runtime installs a policy
    that knows the owning sandbox's slot bounds and MPK color and flags
    accesses the hardware would happily perform — e.g. a store that lands
    in a mapped page of a neighbouring slot. Data checks fire {e after} the
    architectural checks succeed (a trapped access is already contained);
    branch checks fire {e before} indirect-target resolution so a wild
    target is reported at the faulting instruction. The callback must not
    mutate machine state: both engines run it and must remain bit-identical
    under {!Lockstep}. It reports violations by raising. *)

type sanitizer_access =
  | San_read  (** a data load that passed every architectural check *)
  | San_write  (** a data store that passed every architectural check *)
  | San_branch  (** an indirect branch target about to be resolved ([len] is 0) *)

val set_sanitizer :
  t -> (t -> kind:sanitizer_access -> addr:int -> len:int -> unit) option -> unit
(** Install ([Some f]) or disarm ([None], the default) the sanitizer. *)

val pc : t -> int
(** Index of the instruction currently executing (or next to execute) —
    what a sanitizer callback reads to attribute a violation. *)

val instr_at : t -> int -> Sfi_x86.Ast.instr option
(** The loaded instruction at an index, for violation reports. *)

(** {1 Tracing and profiling} *)

val trace : t -> Sfi_trace.Trace.t
(** The attached trace sink ({!Sfi_trace.Trace.null} by default). *)

val set_trace : t -> Sfi_trace.Trace.t -> unit
(** Attach a trace sink. Its clock is pointed at this machine's cycle
    counter (simulated nanoseconds), and the dTLB is wired to emit
    fill/evict events into it. The machine itself emits [pkru.write]
    on every [wrpkru] (both engines, identically) and a
    [fuel.checkpoint] each time {!run} yields. Trace emission never
    touches the performance counters, so traced and untraced runs stay
    bit-identical under {!Lockstep}. *)

val arm_profiler : ?interval:int -> t -> unit
(** Start sampling the program counter every [interval] (default 64)
    executed instructions into a per-instruction histogram. Arming
    clears previous samples. Sampling runs in a dedicated dispatch loop
    so the disarmed hot path is unchanged, and it perturbs no
    architectural state or counters. Selecting the [Adaptive] engine
    arms the profiler (at the default interval) if it is not already
    armed. *)

val disarm_profiler : t -> unit
(** Stop sampling. Collected samples remain readable. Under the
    [Adaptive] engine this also freezes tier promotion at the current
    assignment — already-promoted superblocks keep running. *)

val profile_samples : t -> int
(** Total samples collected since the profiler was last armed. *)

val profile_dropped : t -> int
(** Lifetime count of samples discarded because {!load_program} replaced
    the program they were collected against: the histogram is indexed by
    instruction, so samples describing the old program carry no signal
    for the new one and are dropped — visibly, through this counter —
    rather than silently. Survives re-arming; cleared only by
    {!create}. *)

val hot_regions : t -> (string * int) list
(** Samples aggregated by code region — each instruction is attributed
    to the nearest preceding label (["<entry>"] before the first) —
    sorted by sample count, hottest first. *)

(** {1 Counters} *)

val counters : t -> counters
(** A snapshot: the returned record is a private copy, immutable with
    respect to further execution. *)

val charge_extra_cycles : t -> int -> unit
(** Add cycles to the live counter — how the runtime charges modeled
    transition costs (springboard sequences, context switches) that do
    not correspond to executed instructions. *)

val reset_counters : t -> unit
(** Also resets TLB hit/miss counters. *)

val dtlb_misses : t -> int
val dtlb_hits : t -> int

val dcache_misses : t -> int
(** L1D misses under the flat one-level data-cache model. Working-set
    effects surface here: 32-bit Wasm indices halve pointer footprints,
    which is how Wasm occasionally beats native (sections 6.1 and 6.2). *)

val elapsed_ns : t -> float
(** Simulated nanoseconds: cycles / frequency. *)

val flush_tlb : t -> unit
(** Simulate the TLB flush of an OS-level context switch (multiprocess
    scaling, Figure 7). *)

(** {1 Execution contexts}

    A snapshot of the architectural state (registers, vector registers,
    flags, segment bases, PKRU, program counter). The runtime uses these to
    multiplex many paused Wasm activations over one machine — the
    user-level context switching that makes single-address-space scaling
    attractive (§2). Saving/restoring charges no cycles by itself; the
    scheduler models switch costs explicitly. *)

type context

val save_context : t -> context
val restore_context : t -> context -> unit

(** {1 Observable-state snapshots}

    Everything the lockstep differential validator compares after each
    instruction: architectural state plus every performance counter the
    experiments report. If two engines agree on all of these at every step,
    they are observationally identical for the paper's purposes. *)

type snapshot = {
  s_regs : int64 array;
  s_zf : bool;
  s_sf : bool;
  s_cf : bool;
  s_of : bool;
  s_fs_base : int;
  s_gs_base : int;
  s_pkru : int;
  s_pc : int;
  s_instructions : int;
  s_cycles : int;
  s_loads : int;
  s_stores : int;
  s_code_bytes : int;
  s_seg_base_writes : int;
  s_pkru_writes : int;
  s_dtlb_hits : int;
  s_dtlb_misses : int;
  s_dcache_misses : int;
}

val snapshot : t -> snapshot
