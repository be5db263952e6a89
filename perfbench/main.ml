(* Benchmark entry point: one workload, one seed, one process, one domain.

   usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics; --trace 1 records spans
   around every layer call and reports the per-layer metrics instead.
   The last line of stdout is the JSON result. The exit code is non-zero
   when any correctness or determinism check fails. *)

let workloads = [ "kernel-resident"; "kernel-thrash"; "serve-kv" ]

let usage msg =
  Printf.eprintf
    "perfbench: %s\nusage: main.exe --workload (%s) --seed N --seconds S --trace 0|1\n" msg
    (String.concat "|" workloads);
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | arg :: _ -> usage ("unexpected argument " ^ arg)
  in
  let opts = go [] (List.tl (Array.to_list argv)) in
  let get name conv =
    match List.assoc_opt name opts with
    | None -> usage ("missing --" ^ name)
    | Some v -> ( match conv v with Some x -> x | None -> usage ("bad --" ^ name ^ " " ^ v))
  in
  let workload = get "workload" (fun w -> if List.mem w workloads then Some w else None) in
  let seed = get "seed" int_of_string_opt in
  let seconds =
    get "seconds" (fun s ->
        Option.bind (float_of_string_opt s) (fun f -> if f > 0.0 then Some f else None))
  in
  let trace = get "trace" (function "0" -> Some false | "1" -> Some true | _ -> None) in
  (workload, seed, seconds, trace)

let () =
  let workload, seed, seconds, trace = parse Sys.argv in
  Report.note "perfbench: workload %s, seed %d, %g s, trace %d" workload seed seconds
    (if trace then 1 else 0);
  let report = Report.create () in
  Meter.start ();
  let seed = Int64.of_int seed in
  (match workload with
  | "serve-kv" ->
      if trace then Serving.traced report ~workload ~seed ~seconds
      else Serving.e2e report ~seed ~seconds
  | _ ->
      let w = if workload = "kernel-resident" then Kernels.Resident else Kernels.Thrash in
      if trace then Kernels.traced report w ~workload ~seed ~seconds
      else Kernels.e2e report w ~seed ~seconds);
  Meter.calibrate ();
  List.iter
    (fun m ->
      Report.check report (Float.is_finite (Report.scaled m)) "%s is not finite" m.Report.name)
    report.Report.metrics;
  Report.print report;
  exit (if Report.correct report then 0 else 1)
