(* Host cost of a call, measured from outside, and the host-speed
   calibration every host time is scaled by.

   Host time is process CPU time (getrusage user + system, via Sys.time):
   on a virtual machine wall time also counts the time the hypervisor
   gives the core to other guests. Allocation is minor-heap words: exact
   and, on one domain, deterministic for deterministic code. *)

type cost = { ns : float; words : float }

let cpu_ns () = Sys.time () *. 1e9

(* --- host-speed calibration ---------------------------------------------

   CPU time still swings by up to +-25% over seconds to minutes on a shared
   host: contention for caches and memory slows every instruction. A
   fixed allocation-heavy loop (hash-table updates over boxed int64s, like
   the simulator's own hot paths) slows with it: over 7-second windows it
   cut the run-to-run spread of Sim.run and Kernel.run host time from 12-13%
   to 2%. The loop is sampled every half second between measurements, and
   every host time is scaled to a host on which the loop takes
   [nominal_ns] on average (its median on the 2-vCPU virtual machine the
   bounds were set on). The mean, not the median, of the samples: single
   samples are skewed by short stalls, which slow the measured work too. *)

let calibration_loop () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0L in
  for i = 0 to 100_000 do
    let k = i land 4095 in
    let v = Int64.add (Option.value (Hashtbl.find_opt h k) ~default:0L) (Int64.of_int i) in
    Hashtbl.replace h k (Sys.opaque_identity v);
    acc := Int64.logxor !acc v
  done;
  ignore (Sys.opaque_identity !acc)

let nominal_ns = 10e6
let samples = ref []
let last_sample = ref neg_infinity

let calibrate () =
  let t0 = cpu_ns () in
  calibration_loop ();
  samples := (cpu_ns () -. t0) :: !samples;
  last_sample := Unix.gettimeofday ()

(* Host speed relative to nominal: above 1 on a faster host. Host times
   are multiplied by it, host rates divided. *)
let speed () = nominal_ns /. Sfi_util.Stats.mean !samples
let calibration_samples () = List.length !samples

let start () =
  calibration_loop ();
  calibrate ()

(* --- measurement ---------------------------------------------------------- *)

let depth = ref 0

let measure f =
  if !depth = 0 && Unix.gettimeofday () -. !last_sample >= 0.5 then calibrate ();
  incr depth;
  let w0 = Gc.minor_words () in
  let t0 = cpu_ns () in
  match f () with
  | v ->
      let t1 = cpu_ns () in
      let w1 = Gc.minor_words () in
      decr depth;
      (v, { ns = t1 -. t0; words = w1 -. w0 })
  | exception e ->
      decr depth;
      raise e

let now_s = Unix.gettimeofday
let elapsed_s since = Unix.gettimeofday () -. since
let sum = List.fold_left ( +. ) 0.0
let median = Sfi_util.Stats.median
let pct xs p = Sfi_util.Stats.percentile xs p

let peak_heap_mib () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
