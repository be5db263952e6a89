(* The [Machine] facade over the execution pipeline:

     {!Mstate}    — the [t] record, satellite types, state accessors
     {!Decode}    — operand/memory/flag primitives + the reference
                    interpreter ([step])
     {!Translate} — the per-op body compiler and fixed-cycle table
                    shared by tiers 1 and 2, the tier-1 slot wrapper,
                    basic-block discovery and classification
     {!Tier}      — superblock promotion over the same bodies (batched
                    counter charges with a rollback side table) and the
                    one dispatch loop of [Threaded], [Tier2] and [Adaptive]

   Only this module has a public interface; the pipeline stages are
   private to the library. Everything engine-selection-dependent
   ([load_program], [set_engine], [set_trace], [run]) lives here because
   it has to see all the stages at once. *)

include Mstate

let start = Decode.start

(* --- Sampling hot-PC profiler --- *)

let arm_profiler ?(interval = 64) t =
  if interval <= 0 then invalid_arg "Machine.arm_profiler: interval must be > 0";
  t.prof_interval <- interval;
  t.prof_credit <- interval;
  let n = match t.loaded with Some l -> Array.length l.program + 1 | None -> 1 in
  t.prof_counts <- Array.make n 0

let disarm_profiler t = t.prof_interval <- 0
let profile_samples t = Array.fold_left ( + ) 0 t.prof_counts
let profile_dropped t = t.prof_dropped

let hot_regions t =
  match t.loaded with
  | None -> []
  | Some l ->
      let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let current = ref "<entry>" in
      let n = Array.length l.program in
      Array.iteri
        (fun idx count ->
          if idx < n then
            (match l.program.(idx) with Sfi_x86.Ast.Label lbl -> current := lbl | _ -> ());
          if count > 0 then
            Hashtbl.replace tbl !current
              ((match Hashtbl.find_opt tbl !current with Some c -> c | None -> 0) + count))
        t.prof_counts;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (la, a) (lb, b) -> if a <> b then compare b a else compare la lb)

(* --- Tier stats --- *)

type tier_stats = {
  blocks_total : int;
  blocks_promoted : int;
  promotions : int;
  superblock_instructions : int;
}

let tier_stats t =
  let total, promoted =
    match t.loaded with None -> (0, 0) | Some l -> (Array.length l.blocks, l.promoted)
  in
  {
    blocks_total = total;
    blocks_promoted = promoted;
    promotions = t.tier_promotions;
    superblock_instructions = t.sb_retired;
  }

let superblock_retired t = t.sb_retired

(* --- Program loading, engine and trace selection --- *)

let load_program t program =
  Translate.install t program;
  match t.engine with Tier2 | Adaptive -> Tier.promote_all t | Threaded | Reference -> ()

let set_engine t k =
  t.engine <- k;
  match k with
  | Tier2 | Adaptive -> Tier.promote_all t
  | Threaded | Reference -> Tier.demote t (fun _ -> true)

let set_trace t sink =
  t.trace <- sink;
  (* Timestamps are simulated nanoseconds derived from the cycle counter,
     so trace emission never perturbs the counters both engines must agree
     on. The dTLB shares the sink (fill/evict events on the machine
     track). *)
  Sfi_trace.Trace.set_clock sink (fun () ->
      int_of_float (Cost.ns_of_cycles t.cost t.counters.cycles));
  Tlb.set_trace t.tlb sink;
  (* Promoted trappable blocks batch the cycle charges the sink's
     timestamps derive from; fall back to tier 1 for them. *)
  if Sfi_trace.Trace.enabled sink then Tier.demote t (fun b -> b.b_class <> Bpure)

(* --- Execution --- *)

let retired_key = Domain.DLS.new_key (fun () -> ref 0)
let retired_instructions () = !(Domain.DLS.get retired_key)
let reset_retired_instructions () = Domain.DLS.get retired_key := 0

let run t ~fuel =
  let before = t.counters.instructions in
  let status =
    match t.engine with
    | Threaded | Tier2 | Adaptive -> Tier.run_tiered t ~fuel
    | Reference -> Decode.run_reference t ~fuel
  in
  let r = Domain.DLS.get retired_key in
  r := !r + (t.counters.instructions - before);
  if status = Yielded && Sfi_trace.Trace.enabled t.trace then
    Sfi_trace.Trace.fuel_checkpoint t.trace ~sandbox:(-1) ~executed:t.counters.instructions;
  status

let execute t ~entry ?(fuel = 1 lsl 30) () =
  start t ~entry;
  run t ~fuel

(* An immutable snapshot: callers get a private copy, so further execution
   (or the runtime's transition cost charges) cannot mutate a value a test
   or report already captured. *)
let counters t =
  let c = t.counters in
  {
    instructions = c.instructions;
    cycles = c.cycles;
    loads = c.loads;
    stores = c.stores;
    code_bytes = c.code_bytes;
    seg_base_writes = c.seg_base_writes;
    pkru_writes = c.pkru_writes;
  }

let charge_extra_cycles t n = t.counters.cycles <- t.counters.cycles + n

let reset_counters t =
  let c = t.counters in
  c.instructions <- 0;
  c.cycles <- 0;
  c.loads <- 0;
  c.stores <- 0;
  c.code_bytes <- 0;
  c.seg_base_writes <- 0;
  c.pkru_writes <- 0;
  t.fetch_accum <- 0;
  Tlb.reset_counters t.tlb;
  Tlb.reset_counters t.dcache

(* --- Execution contexts --- *)

type context = {
  c_regs : Bytes.t;
  c_vregs : Bytes.t array;
  c_fs : int;
  c_gs : int;
  c_pkru : int;
  c_zf : bool;
  c_sf : bool;
  c_cf : bool;
  c_of : bool;
  c_pc : int;
  c_fetch : int;
}

let save_context t =
  {
    c_regs = Bytes.copy t.regs;
    c_vregs = Array.map Bytes.copy t.vregs;
    c_fs = t.fs_base;
    c_gs = t.gs_base;
    c_pkru = t.pkru;
    c_zf = t.zf;
    c_sf = t.sf;
    c_cf = t.cf;
    c_of = t.of_;
    c_pc = t.pc;
    c_fetch = t.fetch_accum;
  }

let restore_context t c =
  Bytes.blit c.c_regs 0 t.regs 0 128;
  Array.iteri (fun i b -> Bytes.blit c.c_vregs.(i) 0 b 0 16) t.vregs;
  t.fs_base <- c.c_fs;
  t.gs_base <- c.c_gs;
  t.pkru <- c.c_pkru;
  t.zf <- c.c_zf;
  t.sf <- c.c_sf;
  t.cf <- c.c_cf;
  t.of_ <- c.c_of;
  t.pc <- c.c_pc;
  t.fetch_accum <- c.c_fetch;
  (* The restored PKRU may differ from the one baked into the fast path. *)
  invalidate_pcache t

let dtlb_misses t = Tlb.misses t.tlb
let dtlb_hits t = Tlb.hits t.tlb
let elapsed_ns t = Cost.ns_of_cycles t.cost t.counters.cycles

let flush_tlb t =
  Tlb.flush t.tlb;
  Tlb.flush t.dcache;
  invalidate_pcache t;
  Array.fill t.lc_tag 0 lc_size (-1)

let dcache_misses t = Tlb.misses t.dcache

(* --- Observable-state snapshots (lockstep differential validation) --- *)

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

let snapshot t =
  {
    s_regs = Array.init 16 (fun i -> Bytes.get_int64_ne t.regs (i lsl 3));
    s_zf = t.zf;
    s_sf = t.sf;
    s_cf = t.cf;
    s_of = t.of_;
    s_fs_base = t.fs_base;
    s_gs_base = t.gs_base;
    s_pkru = t.pkru;
    s_pc = t.pc;
    s_instructions = t.counters.instructions;
    s_cycles = t.counters.cycles;
    s_loads = t.counters.loads;
    s_stores = t.counters.stores;
    s_code_bytes = t.counters.code_bytes;
    s_seg_base_writes = t.counters.seg_base_writes;
    s_pkru_writes = t.counters.pkru_writes;
    s_dtlb_hits = Tlb.hits t.tlb;
    s_dtlb_misses = Tlb.misses t.tlb;
    s_dcache_misses = Tlb.misses t.dcache;
  }
