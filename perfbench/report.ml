(* What one benchmark run hands back, and how it is printed: a readable
   table first, then the one-line JSON result as the last line of stdout. *)

(* Host times are scaled by the host-speed calibration when printed
   ([Meter.speed]): times multiplied, rates divided. *)
type scale = Plain | Time | Rate

type metric = { name : string; value : float; unit_ : string; scale : scale }

type t = {
  mutable metrics : metric list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed correctness or determinism checks *)
}

let create () = { metrics = []; attempted = 0; failed = 0; problems = [] }
let add ?(scale = Plain) r name unit_ value =
  r.metrics <- { name; value; unit_; scale } :: r.metrics

let scaled m =
  match m.scale with
  | Plain -> m.value
  | Time -> m.value *. Meter.speed ()
  | Rate -> m.value /. Meter.speed ()

let check r ok fmt =
  Printf.ksprintf (fun msg -> if not ok then r.problems <- msg :: r.problems) fmt

let attempt_many r ~n ~failed =
  r.attempted <- r.attempted + n;
  r.failed <- r.failed + failed

let attempt r ~ok = attempt_many r ~n:1 ~failed:(if ok then 0 else 1)

let correct r = r.problems = [] && r.failed = 0
let note fmt = Printf.printf (fmt ^^ "\n%!")

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print r =
  let metrics = List.map (fun m -> { m with value = scaled m }) (List.rev r.metrics) in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev r.problems);
  note "error_rate = %d failed / %d attempted" r.failed r.attempted;
  note "host speed %.4f (mean calibration over %d samples); host times scaled by it"
    (Meter.speed ()) (Meter.calibration_samples ());
  note "%-44s %18s  %s" "metric" "value" "unit";
  List.iter (fun m -> note "%-44s %18.6g  %s" m.name m.value m.unit_) metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct r) r.attempted r.failed (String.concat ", " fields)
