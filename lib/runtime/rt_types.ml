(* Shared state of the runtime's layers. The engine/instance records are
   mutually recursive, so they live here and the layers split along
   behavior instead: {!Instance} owns the slot lifecycle (claim, CoW
   instantiate, recycle, kill, growth), {!Transition} owns the
   sandbox-boundary cost model (per-class springboards, PKRU accounting),
   and {!Runtime} is the façade that callers see. The library is wrapped,
   so none of this leaks past [Sfi_runtime.Runtime]. *)

module X = Sfi_x86.Ast
module W = Sfi_wasm.Ast
module Space = Sfi_vmem.Space
module Machine = Sfi_machine.Machine
module Codegen = Sfi_core.Codegen
module Pool = Sfi_core.Pool

type trap = X.trap_kind

type fault =
  | Trap of trap
  | Fuel_exhausted
  | Pool_exhausted
  | Instance_dead

exception Fault of fault

let fault_name = function
  | Trap k -> "trap:" ^ X.trap_name k
  | Fuel_exhausted -> "fuel-exhausted"
  | Pool_exhausted -> "pool-exhausted"
  | Instance_dead -> "instance-dead"

type allocator = Simple of { reservation : int } | Pool of Pool.layout

(* Kolosick et al. (Isolation Without Taxation): most transitions need
   almost none of the save/restore work a full springboard performs.
   Classified at import registration:
   - [Pure]: no memory access, no stack switch, no PKRU write — a direct
     call through a minimal springboard;
   - [Readonly]: runs on the sandbox stack under the sandbox's own PKRU
     image (key 0 keeps the host block reachable), so both [wrpkru]s are
     elided;
   - [Full]: the general case — stack switch, exception-handler setup, and
     under ColorGuard a PKRU write each way. *)
type hostcall_class = Pure | Readonly | Full

(* Fixed address-space plan (within the 47-bit user space):
   - tables at the codegen config addresses (~0x3000_0000);
   - per-instance host blocks (vmctx + host stack) from 1 GiB;
   - code at 8 GiB (the machine's default);
   - linear-memory slab from 32 GiB. *)
let host_area_base = 0x4000_0000
let host_block_stride = 0x10_0000 (* 1 MiB *)
let host_stack_offset = 0x1_0000
let host_stack_bytes = 0x4_0000 (* 256 KiB *)
let host_block_len = host_stack_offset + host_stack_bytes
let slab_base = 0x8_0000_0000
let hostcall_halt = 0xFFFF

let wasm_page = W.page_size

(* Lifecycle and transition counters, all monotonic until [reset_metrics]. *)
type counters = {
  mutable transitions : int; (* one-way sandbox crossings *)
  mutable calls_pure : int;
  mutable calls_readonly : int;
  mutable calls_full : int;
  mutable pkru_writes_elided : int;
  mutable pages_zeroed_on_recycle : int;
  mutable instantiations_cold : int; (* first use of a slot *)
  mutable instantiations_warm : int; (* recycled slot reuse *)
  mutable admitted : int; (* slot grants through the admission path *)
  mutable adm_queued : int; (* tickets parked in the admission queue *)
  mutable adm_shed_sojourn : int; (* CoDel / ticket-deadline sheds *)
  mutable adm_shed_rate : int; (* per-tenant token-bucket sheds *)
  mutable adm_shed_capacity : int; (* queue-at-capacity sheds *)
}

let fresh_counters () =
  {
    transitions = 0;
    calls_pure = 0;
    calls_readonly = 0;
    calls_full = 0;
    pkru_writes_elided = 0;
    pages_zeroed_on_recycle = 0;
    instantiations_cold = 0;
    instantiations_warm = 0;
    admitted = 0;
    adm_queued = 0;
    adm_shed_sojourn = 0;
    adm_shed_rate = 0;
    adm_shed_capacity = 0;
  }

let reset_counters c =
  c.transitions <- 0;
  c.calls_pure <- 0;
  c.calls_readonly <- 0;
  c.calls_full <- 0;
  c.pkru_writes_elided <- 0;
  c.pages_zeroed_on_recycle <- 0;
  c.instantiations_cold <- 0;
  c.instantiations_warm <- 0;
  c.admitted <- 0;
  c.adm_queued <- 0;
  c.adm_shed_sojourn <- 0;
  c.adm_shed_rate <- 0;
  c.adm_shed_capacity <- 0

(* Domain-local aggregate of the same counters across every engine created
   on the calling domain. Engines are often created, exercised and dropped
   inside a single workload run (e.g. {!Sfi_workloads.Kernel.run}), so a
   harness that only sees the run's result can still report
   transition/lifecycle totals. Every per-engine counter bump mirrors into
   this record. *)
let domain_counters_key = Domain.DLS.new_key fresh_counters
let domain_counters () = Domain.DLS.get domain_counters_key

(* The engine's one admission queue over the slot pool: tickets park in
   FIFO order and the head claims the next free slot. Arming a controller
   via {!Runtime.set_admission} adds CoDel-style adaptive admission on top:
   a per-ticket sojourn deadline, a target-delay controller applied at
   dequeue (so the load shed is the load that waited longest, never random
   arrivals), and a token-bucket rate limiter per tenant. Time is the
   caller's simulated clock, passed on every call. *)
type admission_config = {
  target_delay_ns : float; (* CoDel target sojourn *)
  interval_ns : float; (* how long sojourn must exceed target before shedding *)
  ticket_deadline_ns : float; (* hard per-ticket sojourn bound *)
  tenant_rate : float; (* bucket refill, tokens per simulated second *)
  tenant_burst : float; (* bucket capacity, >= 1 *)
}

type token_bucket = { mutable tokens : float; mutable refilled_at : float }

type admission_state = {
  acfg : admission_config;
  buckets : (int, token_bucket) Hashtbl.t; (* tenant -> rate-limit state *)
  mutable first_above : float; (* CoDel: when shedding may start; < 0 = below target *)
  mutable shed_run : int; (* consecutive CoDel sheds (control-law count) *)
  mutable pressure : float; (* ladder scale on target/deadline; 1.0 = normal *)
}

type engine = {
  machine : Machine.t;
  space : Space.t;
  compiled : Codegen.compiled;
  allocator : allocator;
  max_slots : int;
  mutable free_slots : int list;
  mutable next_slot : int;
  slot_mapped_pages : (int, int) Hashtbl.t; (* slot -> pages ever mapped *)
  imports : (string, import) Hashtbl.t;
  mutable current : instance option;
  counters : counters;
  retry_capacity : int; (* most tickets [aqueue] may park *)
  aqueue : (int * float) Queue.t; (* (ticket, enqueued-at); stale heads skipped lazily *)
  amember : (int, float) Hashtbl.t; (* parked tickets -> enqueue time *)
  mutable admission : admission_state option; (* None = plain FIFO, no controller *)
  mutable slot_reserve : int; (* slots withheld from allocation (ladder) *)
  (* Pre-initialized module image, baked once at engine creation: data
     segments for the heap, the per-module vmctx template (memory bound,
     host PKRU image, global initial values). Every slot instantiates by
     mapping these copy-on-write. *)
  heap_image : Space.image;
  vmctx_image : Space.image;
  min_pages : int; (* the module's declared initial memory *)
  decl_max_pages : int; (* the module's declared maximum *)
  (* Structured-event sink shared with the machine; [Trace.null] by
     default. Transition spans, hostcall classes, lifecycle and fault
     events are emitted here. *)
  mutable trace : Sfi_trace.Trace.t;
}

and instance = {
  engine : engine;
  id : int;
  vmctx : int;
  heap : int;
  stack_top : int;
  inst_color : int;
  mutable pages : int;
  max_pages : int;
  mutable live : bool;
}

and import = { im_fn : instance -> int64 array -> int64; im_class : hostcall_class }

let ok_exn what = function Ok () -> () | Error msg -> failwith (what ^ ": " ^ msg)
