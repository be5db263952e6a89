(* The Micro_kv request handler on warm instances, the way the serving
   layer runs it, plus the isolated runtime calls a request pays for.

   Every engine here is built like Sim's ColorGuard engine (server-class
   dTLB, striped pool with one slot per tenant), so the per-call costs
   below are the multipliers Serving uses to split a Sim.run request into
   its layers. *)

module Runtime = Sfi_runtime.Runtime
module Codegen = Sfi_core.Codegen
module Strategy = Sfi_core.Strategy
module Machine = Sfi_machine.Machine
module Workloads = Sfi_faas.Workloads

let tenants = 256

let server_tlb =
  { Sfi_vmem.Tlb.entries = 1536; ways = 8; page_walk_levels = 4; walk_cycles_per_level = 5 }

let pool =
  lazy
    (match
       Sfi_core.Pool.compute_with_fallback
         {
           Sfi_core.Pool.num_slots = tenants;
           max_memory_bytes = 4 * Sfi_util.Units.mib;
           expected_slot_bytes = 4 * Sfi_util.Units.mib;
           guard_bytes = 32 * Sfi_util.Units.mib;
           pre_guard_enabled = false;
           num_pkeys_available = Sfi_vmem.Mpk.max_usable_keys;
           stripe_enabled = true;
         }
     with
    | Ok (layout, _) -> layout
    | Error msg -> failwith ("pool layout: " ^ msg))

let compile ?(colorguard = true) ?(strategy = Strategy.wasm_default) m =
  Codegen.compile { (Codegen.default_config ~strategy ()) with Codegen.colorguard } m

let engine ?engine ?cost compiled =
  Runtime.create_engine ~tlb:server_tlb ~allocator:(Runtime.Pool (Lazy.force pool)) ?engine
    ?cost compiled

(* --- handler batches ----------------------------------------------------- *)

let batch = 4096
let fold acc v = Int64.add (Int64.mul acc 1_000_003L) (Int64.logand v 0xFFFFFFFFL)

(* One batch of requests on a fresh (recycled) instance: request [i] is
   [handle(i)], started and stepped to completion like Sim does. *)
let run_batch inst =
  let acc = ref 0L in
  for i = 1 to batch do
    match Runtime.step (Runtime.start_call inst "handle" [ Int64.of_int i ]) ~fuel:1_000_000 with
    | `Done v -> acc := fold !acc v
    | `Trapped _ | `More | `Fault _ ->
        failwith (Printf.sprintf "micro_kv handle(%d) did not complete" i)
  done;
  !acc

(* The same batch through the reference Wasm interpreter. *)
let expected =
  lazy
    (let module I = Sfi_wasm.Interp in
     let inst = I.instantiate (Workloads.module_of Workloads.Micro_kv) in
     let acc = ref 0L in
     for i = 1 to batch do
       match I.invoke inst "handle" [ Sfi_wasm.Ast.V_i32 (Int32.of_int i) ] with
       | Ok [ Sfi_wasm.Ast.V_i32 v ] -> acc := fold !acc (Int64.of_int32 v)
       | _ -> failwith "micro_kv: reference interpreter failed"
     done;
     !acc)

type arm = {
  cost : Meter.cost;  (** measured batches only *)
  requests : int;
  counters : Machine.counters;  (** deltas over the measured batches *)
  dtlb_misses : int;
  dcache_misses : int;
  superblock_instructions : int;  (** retired inside superblocks, measured batches *)
  tier : Machine.tier_stats;
  checksum_ok : bool;
}

let diff (a : Machine.counters) (b : Machine.counters) =
  {
    Machine.instructions = b.instructions - a.instructions;
    cycles = b.cycles - a.cycles;
    loads = b.loads - a.loads;
    stores = b.stores - a.stores;
    code_bytes = b.code_bytes - a.code_bytes;
    seg_base_writes = b.seg_base_writes - a.seg_base_writes;
    pkru_writes = b.pkru_writes - a.pkru_writes;
  }

(* A warm-up batch, then [batches] measured ones, each on a recycled
   instance so every batch computes the same checksum. *)
let arm ?(batches = 8) ?(spans = Span.disabled) ~name e =
  let expected = Lazy.force expected in
  let mach = Runtime.machine e in
  let ok = ref true in
  let one () =
    let inst = Runtime.instantiate e in
    let sum = run_batch inst in
    Runtime.release inst;
    if not (Int64.equal sum expected) then ok := false
  in
  one ();
  let c0 = Machine.counters mach in
  let t0 = Machine.dtlb_misses mach and d0 = Machine.dcache_misses mach in
  let sb0 = Machine.superblock_retired mach in
  let (), cost =
    Meter.measure (fun () ->
        for _ = 1 to batches do
          Span.record spans ~cat:"transition" name one
        done)
  in
  {
    cost;
    requests = batches * batch;
    counters = diff c0 (Machine.counters mach);
    dtlb_misses = Machine.dtlb_misses mach - t0;
    dcache_misses = Machine.dcache_misses mach - d0;
    superblock_instructions = Machine.superblock_retired mach - sb0;
    tier = Machine.tier_stats mach;
    checksum_ok = !ok;
  }

(* --- isolated runtime calls ---------------------------------------------- *)

type call_cost = { ns_per_call : float; words_per_call : float }

(* The isolated runtime calls a Sim.run request is split by. *)
type runtime_costs = { step : call_cost; admit : call_cost }

let per_call n (c : Meter.cost) =
  { ns_per_call = c.Meter.ns /. float_of_int n; words_per_call = c.Meter.words /. float_of_int n }

let noop_module () =
  let open Sfi_wasm.Builder in
  let b = create ~memory_pages:1 () in
  let f = declare b "noop" ~params:[] ~results:[] () in
  define b f [];
  build b

(* [invoke] of an empty export: one transition in and one out. *)
let transition ?(spans = Span.disabled) () =
  let e = engine (compile (noop_module ())) in
  let inst = Runtime.instantiate e in
  let n = 20_000 in
  let call () =
    match Runtime.invoke inst "noop" [] with
    | Ok _ -> ()
    | Error _ -> failwith "noop export trapped"
  in
  for _ = 1 to 1000 do
    call ()
  done;
  let (), c =
    Meter.measure (fun () ->
        Span.record spans ~cat:"transition" "runtime.invoke.noop" (fun () ->
            for _ = 1 to n do
              call ()
            done))
  in
  per_call n c

(* [instantiate] + [release] of a warm slot. *)
let recycle ?(spans = Span.disabled) compiled =
  let e = engine compiled in
  let cycle () = Runtime.release (Runtime.instantiate e) in
  let n = 20_000 in
  for _ = 1 to 1000 do
    cycle ()
  done;
  let (), c =
    Meter.measure (fun () ->
        Span.record spans ~cat:"lifecycle" "runtime.instantiate+release" (fun () ->
            for _ = 1 to n do
              cycle ()
            done))
  in
  per_call n c

(* [admit] of a fresh ticket with admission armed as in serve-kv, then
   [release] of the granted warm slot: the admission path's counterpart
   of [recycle]. Tenants take turns, one simulated microsecond apart, so
   no token bucket runs dry. *)
let admit ?(spans = Span.disabled) compiled =
  let e = engine compiled in
  Runtime.set_admission e (Some { Runtime.default_admission with Runtime.tenant_rate = 60_000.0 });
  let cycle i =
    match Runtime.admit e ~ticket:i ~tenant:(i mod tenants) ~now:(float_of_int i *. 1e3) with
    | `Ready inst -> Runtime.release inst
    | `Wait | `Shed _ -> failwith "admission refused an uncontended ticket"
  in
  let n = 20_000 in
  for i = 0 to 999 do
    cycle i
  done;
  let (), c =
    Meter.measure (fun () ->
        Span.record spans ~cat:"admission" "runtime.admit+release" (fun () ->
            for i = 1000 to 1000 + n - 1 do
              cycle i
            done))
  in
  per_call n c
