(* In-memory spans around the benchmark's calls into each layer's public
   functions.

   A span has a name, a start, an end, the span that was open when it
   began (its parent), and the id of the request it belongs to. Spans
   are kept in flat columns while the replay runs and written out once
   at the end. A layer's self time is its span's duration minus the
   part its child spans cover. *)

type t = {
  on : bool;
  names : (string, int) Hashtbl.t;
  mutable labels : string array;
  mutable name : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable req : int array;
  mutable n : int;
  mutable open_ : int;  (* innermost open span, -1 when none *)
}

(* [capacity] spans fit before the columns grow; a replay sizes it to
   its span count, so growing never lands inside a span. *)
let create ?(capacity = 4096) ~on () =
  {
    on;
    names = Hashtbl.create 32;
    labels = [||];
    name = Array.make capacity 0;
    start = Array.make capacity 0.;
    stop = Array.make capacity 0.;
    parent = Array.make capacity (-1);
    req = Array.make capacity 0;
    n = 0;
    open_ = -1;
  }

(* Intern a span name once, outside the hot loop. *)
let name t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Array.length t.labels in
      Hashtbl.add t.names s i;
      t.labels <- Array.append t.labels [| s |];
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name 0;
  t.start <- ext t.start 0.;
  t.stop <- ext t.stop 0.;
  t.parent <- ext t.parent (-1);
  t.req <- ext t.req 0

let span t nm ~req f =
  if not t.on then f ()
  else begin
    (* The clock is read first and last, so the span's own bookkeeping
       falls inside it. *)
    let start = Util.now () in
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- nm;
    t.parent.(i) <- t.open_;
    t.req.(i) <- req;
    t.open_ <- i;
    t.start.(i) <- start;
    let finish () =
      t.open_ <- t.parent.(i);
      t.stop.(i) <- Util.now ()
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* Per-name durations (seconds, in recording order) and self-time
   totals. *)
type agg = { durs : float array; self : float }

let aggregate t =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (t.stop.(i) -. t.start.(i))
  done;
  let k = Array.length t.labels in
  let durs = Array.init k (fun _ -> Util.Fcol.create ()) in
  let self = Array.make k 0. in
  for i = 0 to t.n - 1 do
    let d = t.stop.(i) -. t.start.(i) in
    Util.Fcol.push durs.(t.name.(i)) d;
    self.(t.name.(i)) <- self.(t.name.(i)) +. (d -. child.(i))
  done;
  Array.to_list
    (Array.mapi
       (fun i l -> (l, { durs = Util.Fcol.to_array durs.(i); self = self.(i) }))
       t.labels)

let find aggs nm =
  match List.assoc_opt nm aggs with
  | Some a -> a
  | None -> { durs = [||]; self = 0. }

(* Every replayed request is one root span of this name; the layer spans
   nest inside it. *)
let root = "request"

(* What one boundary between spans costs in this recording: the median
   stretch from a root span's start to its first child's start, and
   from its last child's end to its own end. Those stretches hold no
   work, only clock readings and bookkeeping. *)
let boundary_cost t =
  let first = Array.make t.n (-1) and last = Array.make t.n (-1) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      if first.(p) < 0 then first.(p) <- i;
      last.(p) <- i
    end
  done;
  let gaps = Util.Fcol.create () in
  for i = 0 to t.n - 1 do
    if t.parent.(i) < 0 && first.(i) >= 0 then begin
      Util.Fcol.push gaps (t.start.(first.(i)) -. t.start.(i));
      Util.Fcol.push gaps (t.stop.(i) -. t.stop.(last.(i)))
    end
  done;
  Util.median (Util.Fcol.to_array gaps)

(* The share of [wall] (percent) that no layer span records, over the
   recorders [ts]: the root spans' self time plus the loop outside
   them, less one boundary cost per stretch between spans there. A root
   with k children has k + 1 such stretches inside it and one after it.
   Work between layer calls that no span covers shows here. *)
let unattributed_pct ts ~wall =
  let layers = ref 0. and boundaries = ref 0. in
  List.iter
    (fun t ->
      List.iter (fun (l, a) -> if l <> root then layers := !layers +. a.self) (aggregate t);
      let edges = ref 0 in
      for i = 0 to t.n - 1 do
        let p = t.parent.(i) in
        if p < 0 then edges := !edges + 2 else if t.parent.(p) < 0 then incr edges
      done;
      boundaries := !boundaries +. (Float.of_int !edges *. boundary_cost t))
    ts;
  Float.abs (wall -. !layers -. !boundaries) /. wall *. 100.

(* Per-request sums of the named spans' durations — a request's
   replayed service time. *)
let per_request t names =
  let ids = List.filter_map (fun s -> Hashtbl.find_opt t.names s) names in
  let tbl = Hashtbl.create 1024 in
  for i = 0 to t.n - 1 do
    if List.mem t.name.(i) ids then begin
      let r = t.req.(i) in
      let d = t.stop.(i) -. t.start.(i) in
      Hashtbl.replace tbl r (d +. Option.value ~default:0. (Hashtbl.find_opt tbl r))
    end
  done;
  tbl

(* One line per span: id, name, request, parent, start and end in ns
   relative to the first span. *)
let write_tsv t path =
  let t0 = if t.n > 0 then t.start.(0) else 0. in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "id\tname\treq\tparent\tstart_ns\tend_ns\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%.0f\t%.0f\n" i t.labels.(t.name.(i))
          t.req.(i) t.parent.(i)
          ((t.start.(i) -. t0) *. 1e9)
          ((t.stop.(i) -. t0) *. 1e9)
      done)

(* Duration of the most recently recorded span (seconds). *)
let last_dur t = if t.n = 0 then 0. else t.stop.(t.n - 1) -. t.start.(t.n - 1)

(* Where [save] writes span files. *)
let out_dir = ref Filename.current_dir_name

let save t tag = write_tsv t (Filename.concat !out_dir (tag ^ ".spans.tsv"))
