(* Machine state: the [t] record, its satellite types, construction, and the
   small accessors that touch only state. The execution pipeline is layered
   on top — [Decode] (operand/memory primitives + the reference
   interpreter), [Translate] (the per-op body compiler shared by tiers 1
   and 2 + basic-block analysis), [Tier] (eager superblock promotion and
   the dispatch loop) — and re-exported through the [Machine] facade,
   which is the only module with a public interface. *)

open Sfi_x86.Ast
module Space = Sfi_vmem.Space
module Tlb = Sfi_vmem.Tlb
module Mpk = Sfi_vmem.Mpk

type counters = {
  mutable instructions : int;
  mutable cycles : int;
  mutable loads : int;
  mutable stores : int;
  mutable code_bytes : int;
  mutable seg_base_writes : int;
  mutable pkru_writes : int;
}

type status = Halted | Trapped of trap_kind | Yielded

type fault_info = { fault_addr : int; fault_write : bool }

exception Hostcall_exit of int
exception Trap_exn of trap_kind

(* Raised by the engines when the entry function returns to the halt
   sentinel. *)
exception Halt_exn

type engine_kind = Threaded | Reference | Tier2 | Adaptive

(* SFI sanitizer hook. [San_read]/[San_write] fire after an access passed
   every architectural check (mapping, protection, PKRU) — i.e. for
   accesses that would silently succeed; a policy installed by the runtime
   can then flag accesses that are architecturally legal but outside the
   owning sandbox's slot. [San_branch] fires when an indirect branch target
   is about to be resolved, before the machine's own code-bounds check, so
   a wild target is attributed to the faulting instruction rather than to a
   generic out-of-bounds trap. *)
type sanitizer_access = San_read | San_write | San_branch

(* Basic-block classes, after the Adaptive Flow Director tier taxonomy:
   [Bpure] is compute-only code that cannot trap or touch memory, [Bload]
   is no-store-no-branch code (loads, pops, division — trappable but
   side-effect-free until retirement), [Bhazard] is everything with stores
   or indirect control flow (promotable, but needs the guarded superblock
   with trap rollback and pc attribution), and [Bbypass] serializes on the
   tier-1 dispatcher forever (hostcalls, explicit traps). *)
type block_class = Bpure | Bload | Bhazard | Bbypass

type block = {
  b_start : int; (* instruction index of the block head *)
  b_len : int; (* dispatch slots, including a leading Label *)
  b_class : block_class;
}

type loaded = {
  program : program;
  offsets : int array; (* byte offset of each instruction *)
  labels : (string, int) Hashtbl.t; (* label -> instruction index; cold lookups only *)
  code_len : int;
  lengths : int array; (* encoded length of each instruction *)
  targets : int array; (* direct-branch target index, -1 = not a direct branch *)
  ret_addrs : int64 array; (* byte address of the following instruction *)
  index_of_off : int array; (* code byte offset -> instruction index, -1 = none *)
  bodies : (t -> unit) array; (* per-op semantics, shared by tiers 1 and 2 *)
  exec : (t -> unit) array; (* tier-1 slots wrapping [bodies]; exec.(n) = off-end sentinel *)
  blocks : block array; (* partition of [0, n) into basic blocks *)
  block_of : int array; (* instruction index -> block index *)
  (* Tier-2 dispatch tables, indexed by instruction like [exec].
     [sb_len.(i) = 0] means instruction [i] does not head a promoted
     superblock; [k > 0] means [sb_exec.(i)] executes the whole [k]-slot
     block with batched counter charges. *)
  sb_len : int array;
  sb_exec : (t -> unit) array;
  mutable promoted : int; (* blocks currently promoted *)
}

and t = {
  space : Space.t;
  cost : Cost.t;
  tlb : Tlb.t;
  dcache : Tlb.t; (* reused set-associative structure; 64-byte lines *)
  code_base : int;
  fsgsbase_available : bool;
  (* 16 GPRs stored unboxed as 128 bytes (native-endian int64 at [8*i]),
     so register writes neither allocate nor hit the GC write barrier. *)
  regs : Bytes.t;
  vregs : Bytes.t array;
  mutable fs_base : int;
  mutable gs_base : int;
  mutable pkru : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable of_ : bool;
  mutable pc : int;
  mutable loaded : loaded option;
  mutable space_generation : int;
  mutable fetch_accum : int;
  counters : counters;
  mutable last_fault : fault_info option;
  mutable hostcall : t -> int -> unit;
  mutable engine : engine_kind;
  (* Shadow-checker consulted on successful data accesses and on indirect
     branch resolution; [None] (the default) costs one predictable branch
     on the access path. The callback must not mutate machine state — all
     execution engines run it and must stay bit-identical. *)
  mutable sanitizer : (t -> kind:sanitizer_access -> addr:int -> len:int -> unit) option;
  (* Page access cache: a small direct-mapped table (indexed by
     [page land pc_mask]) that skips the TLB/prot/MPK walk when an access
     hits a recently checked page and nothing that could change the
     verdict (TLB contents, PKRU, VMA layout) has moved. [pc_tag] = -1
     means invalid; [pc_read_ok]/[pc_write_ok] bake in the protection bits
     AND the current PKRU, so any PKRU write must invalidate. *)
  pc_tag : int array;
  pc_slot : int array;
  pc_read_ok : bool array;
  pc_write_ok : bool array;
  (* Cached backing bytes for the entry's page; valid while [pc_bepoch]
     equals the space's data epoch (-1 = invalid). Reset whenever the tag
     is refilled, so a valid epoch always describes the tag's page. *)
  pc_bepoch : int array;
  pc_bytes : Bytes.t array;
  pc_bwritable : bool array;
  (* Direct-mapped dcache line fast path. *)
  lc_tag : int array;
  lc_slot : int array;
  (* Structured tracing. [Trace.null] (the default) keeps every emission
     site down to one load-and-branch; [set_trace] also points the sink's
     clock at this machine's cycle counter. *)
  mutable trace : Sfi_trace.Trace.t;
  (* Sampling hot-PC profiler: every [prof_interval] executed instructions
     (0 = disarmed) the current pc is bucketed into [prof_counts]. The
     sampling run loops are separate from the untraced ones, so the
     default path keeps its tight dispatch. [prof_dropped] counts samples
     discarded when [load_program] replaces the program the histogram
     described. *)
  mutable prof_interval : int;
  mutable prof_credit : int;
  mutable prof_counts : int array;
  mutable prof_dropped : int;
  (* Tier promotion lifetime stats. [sb_retired] counts instructions
     retired inside superblocks (a host-side statistic, not part of the
     observable snapshot — tiered and untiered runs differ on it by
     design). *)
  mutable tier_promotions : int;
  mutable sb_retired : int;
}

(* Cache geometries: big enough that kernels alternating between a few hot
   pages (heap vs stack) or streaming over arrays don't thrash, small
   enough that invalidation is a handful of cache lines. *)
let pc_size = 64

let pc_mask = pc_size - 1
let lc_size = 256
let lc_mask = lc_size - 1

let default_code_base = 8 * 1024 * 1024 * 1024 (* 8 GiB: 4 GiB-aligned, above null *)

let fresh_counters () =
  {
    instructions = 0;
    cycles = 0;
    loads = 0;
    stores = 0;
    code_bytes = 0;
    seg_base_writes = 0;
    pkru_writes = 0;
  }

let default_dcache_config =
  (* 512 lines x 8 ways x 64 B = 32 KiB, a typical L1D. *)
  { Tlb.entries = 512; ways = 8; page_walk_levels = 0; walk_cycles_per_level = 0 }

let create ?(cost = Cost.default) ?(tlb = Tlb.default_config) ?(code_base = default_code_base)
    ?(fsgsbase_available = true) space =
  {
    space;
    cost;
    tlb = Tlb.create tlb;
    dcache = Tlb.create default_dcache_config;
    code_base;
    fsgsbase_available;
    regs = Bytes.make 128 '\000';
    vregs = Array.init 16 (fun _ -> Bytes.make 16 '\000');
    fs_base = 0;
    gs_base = 0;
    pkru = Mpk.allow_all;
    zf = false;
    sf = false;
    cf = false;
    of_ = false;
    pc = 0;
    loaded = None;
    space_generation = Space.generation space;
    fetch_accum = 0;
    counters = fresh_counters ();
    last_fault = None;
    hostcall = (fun _ n -> invalid_arg (Printf.sprintf "no hostcall handler (hostcall %d)" n));
    engine = Threaded;
    sanitizer = None;
    pc_tag = Array.make pc_size (-1);
    pc_slot = Array.make pc_size 0;
    pc_read_ok = Array.make pc_size false;
    pc_write_ok = Array.make pc_size false;
    pc_bepoch = Array.make pc_size (-1);
    pc_bytes = Array.make pc_size Bytes.empty;
    pc_bwritable = Array.make pc_size false;
    lc_tag = Array.make lc_size (-1);
    lc_slot = Array.make lc_size 0;
    trace = Sfi_trace.Trace.null;
    prof_interval = 0;
    prof_credit = 0;
    prof_counts = [||];
    prof_dropped = 0;
    tier_promotions = 0;
    sb_retired = 0;
  }

let space t = t.space
let cost_model t = t.cost

(* Invalidate the access-permission fast path. Needed whenever the cached
   verdict could change: PKRU writes, TLB flushes, VMA layout changes. *)
let invalidate_pcache t =
  Array.fill t.pc_tag 0 pc_size (-1);
  Array.fill t.pc_bepoch 0 pc_size (-1)

let get_loaded t =
  match t.loaded with Some l -> l | None -> invalid_arg "Machine: no program loaded"

let label_index t name =
  let l = get_loaded t in
  match Hashtbl.find_opt l.labels name with
  | Some idx -> idx
  | None -> raise Not_found

let label_address t name =
  let l = get_loaded t in
  t.code_base + l.offsets.(label_index t name)

let code_bounds t =
  let l = get_loaded t in
  (t.code_base, l.code_len)

(* --- Register access --- *)

let reg_get t i = Bytes.get_int64_ne t.regs (i lsl 3)
let reg_set t i v = Bytes.set_int64_ne t.regs (i lsl 3) v
let get_reg t r = reg_get t (gpr_index r)
let set_reg t r v = reg_set t (gpr_index r) v

let read_reg_w t w r =
  let v = reg_get t (gpr_index r) in
  match w with
  | W64 -> v
  | W32 -> Int64.logand v 0xFFFFFFFFL
  | W16 -> Int64.logand v 0xFFFFL
  | W8 -> Int64.logand v 0xFFL

(* x86 semantics: 32-bit writes zero-extend; 8/16-bit writes preserve the
   upper bits of the destination. *)
let write_reg_w t w r v =
  let i = gpr_index r in
  match w with
  | W64 -> reg_set t i v
  | W32 -> reg_set t i (Int64.logand v 0xFFFFFFFFL)
  | W16 ->
      reg_set t i
        (Int64.logor (Int64.logand (reg_get t i) (Int64.lognot 0xFFFFL)) (Int64.logand v 0xFFFFL))
  | W8 ->
      reg_set t i
        (Int64.logor (Int64.logand (reg_get t i) (Int64.lognot 0xFFL)) (Int64.logand v 0xFFL))

let get_seg_base t = function FS -> t.fs_base | GS -> t.gs_base
let set_seg_base t seg v = match seg with FS -> t.fs_base <- v | GS -> t.gs_base <- v
let get_pkru t = t.pkru

let set_pkru t v =
  t.pkru <- v;
  invalidate_pcache t

let set_hostcall_handler t f = t.hostcall <- f
let engine t = t.engine
let trace t = t.trace
let last_fault_info t = t.last_fault
let set_sanitizer t f = t.sanitizer <- f
let pc t = t.pc

let instr_at t idx =
  match t.loaded with
  | Some l when idx >= 0 && idx < Array.length l.program -> Some l.program.(idx)
  | _ -> None

(* Bucket the pc a sampling loop stopped at after retiring [slots]
   dispatch slots (1 for a single dispatch, the block length for a
   superblock, whose whole run is attributed to its exit pc). Counter
   effects: none — the profiler observes execution without perturbing it,
   so armed and disarmed runs stay bit-identical under lockstep
   comparison, and the histogram is never part of the observable
   snapshot. *)
let[@inline] prof_sample t slots =
  t.prof_credit <- t.prof_credit - slots;
  if t.prof_credit <= 0 then begin
    t.prof_credit <- t.prof_interval;
    let pc = t.pc in
    if pc >= 0 && pc < Array.length t.prof_counts then
      t.prof_counts.(pc) <- t.prof_counts.(pc) + 1
  end
