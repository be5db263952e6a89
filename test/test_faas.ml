(* Tests for the FaaS platform simulator (Figures 6/7): determinism,
   cross-mode agreement on the computed work, and the qualitative
   properties the figures rely on. *)

module Sim = Sfi_faas.Sim
module Wk = Sfi_faas.Workloads
module W = Sfi_wasm.Ast
module Interp = Sfi_wasm.Interp

let quick_cfg ?(mode = Sim.Colorguard) ?(workload = Wk.Hash_balance) () =
  let cfg = Sim.default_config ~mode ~workload () in
  { cfg with Sim.duration_ns = 8.0e6; concurrency = 48 }

let test_workload_modules_run () =
  (* Each request handler is a real Wasm module: spot-check them in the
     interpreter with a couple of seeds. *)
  List.iter
    (fun w ->
      let m = Wk.module_of w in
      let inst = Interp.instantiate m in
      List.iter
        (fun seed ->
          match Interp.invoke inst "handle" [ W.V_i32 seed ] with
          | Ok [ W.V_i32 _ ] -> ()
          | Ok _ -> Alcotest.fail "arity"
          | Error t -> Alcotest.failf "%s trapped: %s" (Wk.name w) (Interp.trap_name t))
        [ 1l; 77l; 123456l ])
    Wk.all

let test_determinism () =
  let r1 = Sim.run (quick_cfg ()) in
  let r2 = Sim.run (quick_cfg ()) in
  Alcotest.(check int) "same completions" r1.Sim.completed r2.Sim.completed;
  Alcotest.(check int64) "same checksum" r1.Sim.checksum r2.Sim.checksum;
  Alcotest.(check int) "same dtlb misses" r1.Sim.dtlb_misses r2.Sim.dtlb_misses

let test_modes_compute_same_requests () =
  (* For a fixed seed and load, ColorGuard and multiprocess complete the
     same requests with the same results (the strategies differ in cost,
     not function). *)
  let cg = Sim.run (quick_cfg ()) in
  let mp = Sim.run (quick_cfg ~mode:(Sim.Multiprocess 4) ()) in
  Alcotest.(check bool) "both complete work" true (cg.Sim.completed > 10 && mp.Sim.completed > 10);
  (* Per-request results are seed-determined, so equal completion counts
     imply equal checksums. *)
  if cg.Sim.completed = mp.Sim.completed then
    Alcotest.(check int64) "checksums agree" cg.Sim.checksum mp.Sim.checksum

let test_colorguard_properties () =
  let r = Sim.run (quick_cfg ()) in
  Alcotest.(check int) "no OS context switches" 0 r.Sim.context_switches;
  Alcotest.(check bool) "user transitions happen" true (r.Sim.user_transitions > 0);
  Alcotest.(check bool) "cpu busy below wall clock" true (r.Sim.cpu_busy_ns <= r.Sim.simulated_ns)

let test_multiprocess_scaling_shape () =
  let switches k =
    (Sim.run (quick_cfg ~mode:(Sim.Multiprocess k) ())).Sim.context_switches
  in
  let s1 = switches 1 and s4 = switches 4 and s12 = switches 12 in
  Alcotest.(check int) "one process never switches" 0 s1;
  Alcotest.(check bool) "switches grow with process count (fig 7a)" true (s4 > 0 && s12 > s4)

let test_efficiency_gap () =
  (* Figure 6's direction: at high process counts ColorGuard serves the
     same load with less CPU. *)
  let cfg = quick_cfg () in
  let gain = Sim.throughput_gain ~workload:Wk.Hash_balance ~processes:12 cfg in
  Alcotest.(check bool) "double-digit gain at 12 processes" true (gain > 5.0);
  let gain1 = Sim.throughput_gain ~workload:Wk.Hash_balance ~processes:1 cfg in
  Alcotest.(check bool) "no gain against a single process" true (Float.abs gain1 < 3.0)

let test_dtlb_direction () =
  let cfg = { (quick_cfg ()) with Sim.duration_ns = 12.0e6 } in
  let cg = Sim.run { cfg with Sim.mode = Sim.Colorguard } in
  let mp = Sim.run { cfg with Sim.mode = Sim.Multiprocess 12 } in
  Alcotest.(check bool) "multiprocess misses more (fig 7b)" true
    (mp.Sim.dtlb_misses > cg.Sim.dtlb_misses)

let test_config_validation () =
  Alcotest.check_raises "zero processes rejected"
    (Invalid_argument "Sim: process count must be >= 1") (fun () ->
      ignore (Sim.run (quick_cfg ~mode:(Sim.Multiprocess 0) ())));
  let with_pool n =
    let cfg = quick_cfg () in
    { cfg with Sim.overload = { Sim.no_overload with Sim.pool_slots = Some n } }
  in
  Alcotest.check_raises "empty pool rejected"
    (Invalid_argument "Sim: pool_slots must be >= 1") (fun () ->
      ignore (Sim.run (with_pool 0)));
  match Sim.run (with_pool 100_000_000) with
  | _ -> Alcotest.fail "a pool beyond the address space must be rejected"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        ("typed pool layout error: " ^ msg)
        true
        (String.starts_with ~prefix:"Sim: pool layout: total slab (3515625 GiB)" msg)

let test_faulty_sim_contained () =
  (* Misbehaving tenants: the simulation must run to completion (nothing
     sandbox-attributable escapes Sim.run), report a degraded availability,
     and keep serving the well-behaved majority. *)
  let faults =
    { Sim.no_faults with Sim.trap_rate = 0.15; runaway_rate = 0.05; deadline_epochs = 2 }
  in
  let base = quick_cfg () in
  let cfg = { base with Sim.faults } in
  let r = Sim.run cfg in
  Alcotest.(check bool) "some requests completed" true (r.Sim.completed > 0);
  Alcotest.(check bool) "some requests failed" true (r.Sim.failed > 0);
  Alcotest.(check bool) "availability strictly between 0 and 1" true
    (r.Sim.availability > 0.0 && r.Sim.availability < 1.0);
  Alcotest.(check bool) "goodput below throughput" true
    (r.Sim.goodput_rps < r.Sim.throughput_rps);
  Alcotest.(check int) "colorguard has no blast radius" 0 r.Sim.collateral_aborts;
  Alcotest.(check bool) "killed slots were recycled" true (r.Sim.recycles > 0);
  (* Same faults under multiprocess: still contained, still completes. *)
  let mp = Sim.run { cfg with Sim.mode = Sim.Multiprocess 4 } in
  Alcotest.(check bool) "multiprocess completes too" true (mp.Sim.completed > 0);
  Alcotest.(check bool) "multiprocess availability sane" true
    (mp.Sim.availability > 0.0 && mp.Sim.availability <= 1.0)

let test_fault_free_unchanged () =
  (* The fault machinery must not perturb the legacy zero-fault results:
     same seed, same checksum, availability exactly 1. *)
  let r = Sim.run (quick_cfg ()) in
  Alcotest.(check int) "no failures" 0 r.Sim.failed;
  Alcotest.(check bool) "availability 1.0" true (r.Sim.availability = 1.0);
  Alcotest.(check bool) "goodput = throughput" true
    (Float.abs (r.Sim.goodput_rps -. r.Sim.throughput_rps) < 1e-9)

let tests =
  [
    Harness.case "workload modules run" test_workload_modules_run;
    Alcotest.test_case "determinism" `Slow test_determinism;
    Alcotest.test_case "modes compute the same requests" `Slow test_modes_compute_same_requests;
    Alcotest.test_case "colorguard properties" `Slow test_colorguard_properties;
    Alcotest.test_case "multiprocess switch growth" `Slow test_multiprocess_scaling_shape;
    Alcotest.test_case "efficiency gap" `Slow test_efficiency_gap;
    Alcotest.test_case "dtlb direction" `Slow test_dtlb_direction;
    Harness.case "config validation" test_config_validation;
    Alcotest.test_case "faulty sim contained" `Slow test_faulty_sim_contained;
    Alcotest.test_case "fault-free behavior unchanged" `Slow test_fault_free_unchanged;
  ]
