(* Host-clock spans recorded around calls into the repo's layers. The
   clock is process CPU time, as for every other host time here.

   Spans stay in memory while the benchmark runs and are exported once at
   the end as Chrome trace_event JSON. Everything runs on one domain, so
   spans nest strictly: a span's children never overlap each other and
   its self time is its duration minus the sum of its children's. *)

type span = {
  id : int;
  name : string;
  cat : string;
  parent : int;  (** [-1] for a root span *)
  iter : int;  (** workload iteration the span belongs to *)
  t0 : float;  (** ns *)
  mutable t1 : float;
  mutable child_ns : float;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (** newest first *)
  mutable stack : span list;
  mutable next_id : int;
  mutable iter : int;
}

let create ~enabled = { enabled; spans = []; stack = []; next_id = 0; iter = 0 }
let disabled = create ~enabled:false
let set_iter t i = t.iter <- i

(* [cat] must be one of the trace categories Sfi_trace.Trace knows, so
   the export passes its validator. *)
let record t ~cat name f =
  if not t.enabled then f ()
  else begin
    let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
    let s =
      {
        id = t.next_id;
        name;
        cat;
        parent;
        iter = t.iter;
        t0 = Meter.cpu_ns ();
        t1 = 0.0;
        child_ns = 0.0;
      }
    in
    t.next_id <- t.next_id + 1;
    t.spans <- s :: t.spans;
    t.stack <- s :: t.stack;
    let close () =
      s.t1 <- Meter.cpu_ns ();
      t.stack <- List.tl t.stack;
      match t.stack with
      | p :: _ -> p.child_ns <- p.child_ns +. (s.t1 -. s.t0)
      | [] -> ()
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

type summary = { count : int; total_ns : float; self_ns : float }

(* Per-name totals, in first-seen order. *)
let summaries t =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let self = dur -. s.child_ns in
      match Hashtbl.find_opt tbl s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name { count = 1; total_ns = dur; self_ns = self }
      | Some a ->
          Hashtbl.replace tbl s.name
            { count = a.count + 1; total_ns = a.total_ns +. dur; self_ns = a.self_ns +. self })
    (List.rev t.spans);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let chrome_json t =
  let spans = List.rev t.spans in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0.0 in
  let us ts = (ts -. origin) /. 1e3 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
     \"args\":{\"name\":\"perfbench\"}}";
  (* Begin/end events in stream order: a depth-first walk of the span
     tree, which is start order with each end emitted after its children. *)
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let event ph s ts =
    Printf.bprintf b
      ",{\"name\":%S,\"cat\":%S,\"ph\":\"%s\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
       \"args\":{\"id\":%d,\"parent\":%d,\"iter\":%d}}"
      s.name s.cat ph (us ts) s.id s.parent s.iter
  in
  let rec walk s =
    event "B" s s.t0;
    List.iter walk (List.rev (Hashtbl.find_all children s.id));
    event "E" s s.t1
  in
  List.iter walk (List.rev (Hashtbl.find_all children (-1)));
  Buffer.add_string b "]}";
  Buffer.contents b
