(* Global operation counters, gauges, histograms and span timers.

   Design goals, in order:

   1. Near-zero overhead when disabled: every recording entry point is a
      single [ref] load and a conditional branch — no allocation, no
      atomic traffic, no syscall. Benches run with stats off by default.
   2. Safe under domains: counters are [int Atomic.t]; span and
      histogram aggregation is serialised by a single mutex that is
      only taken on the cold paths (span exit, registration, snapshot).
   3. Deterministic rendering: snapshots sort every section by name so
      JSON output is stable across runs and domain counts.

   The clock is [Unix.gettimeofday] — OCaml 5.1's stdlib exposes no
   monotonic clock and no timer library is vendored, so we follow
   [Maxrs_resilience.Budget] and clamp negative deltas (NTP steps) to
   zero rather than report time running backwards. *)

let truthy s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "0" | "false" | "off" | "no" -> false
  | _ -> true

let on =
  ref
    (match Sys.getenv_opt "MAXRS_STATS" with
    | None -> false
    | Some s -> truthy s)

let enabled () = !on
let set_enabled b = on := b

let with_enabled b f =
  let prev = !on in
  on := b;
  Fun.protect ~finally:(fun () -> on := prev) f

(* Registration and span aggregation share one mutex. Registration
   happens at module initialisation (all instruments in this repo are
   top-level bindings), so contention is nil in steady state. *)
let reg_mutex = Mutex.create ()

type counter = { c_index : int; c_name : string; c_cell : int Atomic.t }

(* Grow-only array of all counters, in registration order. [c_index]
   is the position in this array; span frames snapshot it to compute
   per-span counter deltas. Readers may race with registration: they
   take an immutable array value first, so at worst they miss a counter
   registered mid-span, never read garbage. *)
let all_counters : counter array ref = ref [||]

let counter name =
  Mutex.protect reg_mutex (fun () ->
      match Array.find_opt (fun c -> c.c_name = name) !all_counters with
      | Some c -> c
      | None ->
          let c =
            {
              c_index = Array.length !all_counters;
              c_name = name;
              c_cell = Atomic.make 0;
            }
          in
          all_counters := Array.append !all_counters [| c |];
          c)

let incr c = if !on then Atomic.incr c.c_cell

let add c k =
  if !on && k <> 0 then ignore (Atomic.fetch_and_add c.c_cell k : int)

let value c = Atomic.get c.c_cell

type gauge = { g_name : string; g_last : int Atomic.t; g_max : int Atomic.t }

let all_gauges : gauge array ref = ref [||]

let gauge name =
  Mutex.protect reg_mutex (fun () ->
      match Array.find_opt (fun g -> g.g_name = name) !all_gauges with
      | Some g -> g
      | None ->
          let g =
            { g_name = name; g_last = Atomic.make 0; g_max = Atomic.make 0 }
          in
          all_gauges := Array.append !all_gauges [| g |];
          g)

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

let set_gauge g v =
  if !on then begin
    Atomic.set g.g_last v;
    atomic_max g.g_max v
  end

let gauge_value g = Atomic.get g.g_last
let gauge_max g = Atomic.get g.g_max

(* Histograms bucket by bit length: bucket [i >= 1] covers
   [2^(i-1), 2^i), bucket 0 holds non-positive observations. 64 buckets
   cover the whole int range; no configuration needed. *)
let histogram_buckets = 64

type histogram = {
  h_name : string;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_max : int Atomic.t;
  h_buckets : int Atomic.t array;
}

let all_histograms : histogram array ref = ref [||]

let histogram name =
  Mutex.protect reg_mutex (fun () ->
      match Array.find_opt (fun h -> h.h_name = name) !all_histograms with
      | Some h -> h
      | None ->
          let h =
            {
              h_name = name;
              h_count = Atomic.make 0;
              h_sum = Atomic.make 0;
              h_max = Atomic.make 0;
              h_buckets =
                Array.init histogram_buckets (fun _ -> Atomic.make 0);
            }
          in
          all_histograms := Array.append !all_histograms [| h |];
          h)

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      b := !b + 1;
      v := !v lsr 1
    done;
    !b
  end

let observe h v =
  if !on then begin
    Atomic.incr h.h_count;
    ignore (Atomic.fetch_and_add h.h_sum v : int);
    atomic_max h.h_max v;
    Atomic.incr h.h_buckets.(bucket_of v)
  end

let histogram_count h = Atomic.get h.h_count
let histogram_sum h = Atomic.get h.h_sum

(* Spans. Each domain keeps its own frame stack in domain-local storage
   so nesting works without locking; completed frames fold into the
   global table under [reg_mutex]. A frame snapshots every counter at
   entry and attributes the delta at exit, which makes per-span counter
   attribution exact on single-domain runs and a useful approximation
   when worker domains advance counters concurrently. *)
type span_stat = {
  mutable s_count : int;
  mutable s_total_ns : int;
  mutable s_max_ns : int;
  s_deltas : (string, int) Hashtbl.t;
  (* GC deltas attributed to the span (calling domain only — worker
     domains have their own minor heaps, so like counter attribution
     this is exact on single-domain runs and a lower bound otherwise). *)
  mutable s_minor_words : float;
  mutable s_promoted_words : float;
  mutable s_major_words : float;
  mutable s_minor_collections : int;
  mutable s_major_collections : int;
  mutable s_top_heap_words : int;
}

let spans : (string, span_stat) Hashtbl.t = Hashtbl.create 16

type frame = {
  f_name : string;
  f_start : float;
  f_base : int array;
  f_gc : Gc.stat;
  f_minor : float;
      (* [Gc.minor_words ()]: unlike [Gc.quick_stat]'s [minor_words] on
         OCaml 5.1, it counts the words still pending in the minor heap,
         so a span that triggers no minor collection is not read as 0 *)
}

let stacks : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let span_depth () = List.length !(Domain.DLS.get stacks)

let enter_span name =
  let cs = !all_counters in
  let base = Array.map (fun c -> Atomic.get c.c_cell) cs in
  let st = Domain.DLS.get stacks in
  let f_gc = Gc.quick_stat () in
  let f_start = Unix.gettimeofday () in
  (* Read last, so the span's own bookkeeping is not counted in it but
     for the frame itself. *)
  let f_minor = Gc.minor_words () in
  st := { f_name = name; f_start; f_base = base; f_gc; f_minor } :: !st

let exit_span () =
  let st = Domain.DLS.get stacks in
  match !st with
  | [] -> ()
  | f :: rest ->
      st := rest;
      let dt = Unix.gettimeofday () -. f.f_start in
      let ns = if dt <= 0. then 0 else int_of_float (dt *. 1e9) in
      let cs = !all_counters in
      let minor = Gc.minor_words () -. f.f_minor in
      let g1 = Gc.quick_stat () in
      let g0 = f.f_gc in
      Mutex.protect reg_mutex (fun () ->
          let s =
            match Hashtbl.find_opt spans f.f_name with
            | Some s -> s
            | None ->
                let s =
                  {
                    s_count = 0;
                    s_total_ns = 0;
                    s_max_ns = 0;
                    s_deltas = Hashtbl.create 8;
                    s_minor_words = 0.;
                    s_promoted_words = 0.;
                    s_major_words = 0.;
                    s_minor_collections = 0;
                    s_major_collections = 0;
                    s_top_heap_words = 0;
                  }
                in
                Hashtbl.add spans f.f_name s;
                s
          in
          s.s_count <- s.s_count + 1;
          s.s_total_ns <- s.s_total_ns + ns;
          if ns > s.s_max_ns then s.s_max_ns <- ns;
          s.s_minor_words <- s.s_minor_words +. minor;
          s.s_promoted_words <-
            s.s_promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
          s.s_major_words <-
            s.s_major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
          s.s_minor_collections <-
            s.s_minor_collections
            + (g1.Gc.minor_collections - g0.Gc.minor_collections);
          s.s_major_collections <-
            s.s_major_collections
            + (g1.Gc.major_collections - g0.Gc.major_collections);
          if g1.Gc.top_heap_words > s.s_top_heap_words then
            s.s_top_heap_words <- g1.Gc.top_heap_words;
          Array.iter
            (fun c ->
              if c.c_index < Array.length f.f_base then begin
                let d = Atomic.get c.c_cell - f.f_base.(c.c_index) in
                if d <> 0 then
                  Hashtbl.replace s.s_deltas c.c_name
                    (d
                    + Option.value ~default:0
                        (Hashtbl.find_opt s.s_deltas c.c_name))
              end)
            cs)

let with_span name f =
  if not !on then f ()
  else begin
    enter_span name;
    Fun.protect ~finally:exit_span f
  end

let reset () =
  Mutex.protect reg_mutex (fun () ->
      Array.iter (fun c -> Atomic.set c.c_cell 0) !all_counters;
      Array.iter
        (fun g ->
          Atomic.set g.g_last 0;
          Atomic.set g.g_max 0)
        !all_gauges;
      Array.iter
        (fun h ->
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum 0;
          Atomic.set h.h_max 0;
          Array.iter (fun b -> Atomic.set b 0) h.h_buckets)
        !all_histograms;
      Hashtbl.reset spans)

module Snapshot = struct
  type histo = {
    hs_count : int;
    hs_sum : int;
    hs_max : int;
    hs_buckets : (int * int) list; (* (bucket index, count), non-zero only *)
  }

  type span_gc = {
    sg_minor_words : float;
    sg_promoted_words : float;
    sg_major_words : float;
    sg_minor_collections : int;
    sg_major_collections : int;
    sg_top_heap_words : int;
  }

  type span = {
    sp_count : int;
    sp_total_ns : int;
    sp_max_ns : int;
    sp_counters : (string * int) list;
    sp_gc : span_gc;
  }

  type gc = {
    gc_minor_words : float;
    gc_promoted_words : float;
    gc_major_words : float;
    gc_minor_collections : int;
    gc_major_collections : int;
    gc_compactions : int;
    gc_heap_words : int;
    gc_top_heap_words : int;
  }

  type t = {
    counters : (string * int) list;
    gauges : (string * (int * int)) list; (* name -> (last, max) *)
    histograms : (string * histo) list;
    spans : (string * span) list;
    gc : gc;
  }

  let by_name (a, _) (b, _) = String.compare a b

  let capture () =
    Mutex.protect reg_mutex (fun () ->
        let counters =
          !all_counters |> Array.to_list
          |> List.map (fun c -> (c.c_name, Atomic.get c.c_cell))
          |> List.sort by_name
        in
        let gauges =
          !all_gauges |> Array.to_list
          |> List.map (fun g ->
                 (g.g_name, (Atomic.get g.g_last, Atomic.get g.g_max)))
          |> List.sort by_name
        in
        let histograms =
          !all_histograms |> Array.to_list
          |> List.map (fun h ->
                 let buckets = ref [] in
                 for i = histogram_buckets - 1 downto 0 do
                   let c = Atomic.get h.h_buckets.(i) in
                   if c > 0 then buckets := (i, c) :: !buckets
                 done;
                 ( h.h_name,
                   {
                     hs_count = Atomic.get h.h_count;
                     hs_sum = Atomic.get h.h_sum;
                     hs_max = Atomic.get h.h_max;
                     hs_buckets = !buckets;
                   } ))
          |> List.sort by_name
        in
        let spans =
          Hashtbl.fold
            (fun name s acc ->
              ( name,
                {
                  sp_count = s.s_count;
                  sp_total_ns = s.s_total_ns;
                  sp_max_ns = s.s_max_ns;
                  sp_counters =
                    Hashtbl.fold (fun k v l -> (k, v) :: l) s.s_deltas []
                    |> List.sort by_name;
                  sp_gc =
                    {
                      sg_minor_words = s.s_minor_words;
                      sg_promoted_words = s.s_promoted_words;
                      sg_major_words = s.s_major_words;
                      sg_minor_collections = s.s_minor_collections;
                      sg_major_collections = s.s_major_collections;
                      sg_top_heap_words = s.s_top_heap_words;
                    };
                } )
              :: acc)
            spans []
          |> List.sort by_name
        in
        let g = Gc.quick_stat () in
        let gc =
          {
            gc_minor_words = g.Gc.minor_words;
            gc_promoted_words = g.Gc.promoted_words;
            gc_major_words = g.Gc.major_words;
            gc_minor_collections = g.Gc.minor_collections;
            gc_major_collections = g.Gc.major_collections;
            gc_compactions = g.Gc.compactions;
            gc_heap_words = g.Gc.heap_words;
            gc_top_heap_words = g.Gc.top_heap_words;
          }
        in
        { counters; gauges; histograms; spans; gc })

  let counter t name =
    Option.value ~default:0 (List.assoc_opt name t.counters)

  let span t name = List.assoc_opt name t.spans

  (* [diff b ~base] subtracts monotone quantities so that instrumented
     sections can be measured without a global [reset]: counters,
     histogram counts/sums/buckets and span counts/totals subtract;
     gauges and maxima keep the later value. Names only present in
     [b] pass through unchanged. *)
  let diff b ~base =
    let sub_assoc bs base_list =
      List.map
        (fun (name, v) ->
          (name, v - Option.value ~default:0 (List.assoc_opt name base_list)))
        bs
    in
    let counters = sub_assoc b.counters base.counters in
    let histograms =
      List.map
        (fun (name, h) ->
          match List.assoc_opt name base.histograms with
          | None -> (name, h)
          | Some h0 ->
              ( name,
                {
                  hs_count = h.hs_count - h0.hs_count;
                  hs_sum = h.hs_sum - h0.hs_sum;
                  hs_max = h.hs_max;
                  hs_buckets =
                    List.filter_map
                      (fun (i, c) ->
                        let c0 =
                          Option.value ~default:0
                            (List.assoc_opt i h0.hs_buckets)
                        in
                        if c - c0 > 0 then Some (i, c - c0) else None)
                      h.hs_buckets;
                } ))
        b.histograms
    in
    let spans =
      List.map
        (fun (name, s) ->
          match List.assoc_opt name base.spans with
          | None -> (name, s)
          | Some s0 ->
              ( name,
                {
                  sp_count = s.sp_count - s0.sp_count;
                  sp_total_ns = s.sp_total_ns - s0.sp_total_ns;
                  sp_max_ns = s.sp_max_ns;
                  sp_counters =
                    List.filter
                      (fun (_, v) -> v <> 0)
                      (sub_assoc s.sp_counters s0.sp_counters);
                  sp_gc =
                    {
                      sg_minor_words =
                        s.sp_gc.sg_minor_words -. s0.sp_gc.sg_minor_words;
                      sg_promoted_words =
                        s.sp_gc.sg_promoted_words -. s0.sp_gc.sg_promoted_words;
                      sg_major_words =
                        s.sp_gc.sg_major_words -. s0.sp_gc.sg_major_words;
                      sg_minor_collections =
                        s.sp_gc.sg_minor_collections
                        - s0.sp_gc.sg_minor_collections;
                      sg_major_collections =
                        s.sp_gc.sg_major_collections
                        - s0.sp_gc.sg_major_collections;
                      sg_top_heap_words = s.sp_gc.sg_top_heap_words;
                    };
                } ))
        b.spans
    in
    (* Process-wide GC words/collections are monotone and subtract;
       heap gauges ([heap_words], [top_heap_words], [compactions]'
       count is monotone too but tiny) keep the later value, matching
       the gauge rule. *)
    let gc =
      {
        gc_minor_words = b.gc.gc_minor_words -. base.gc.gc_minor_words;
        gc_promoted_words = b.gc.gc_promoted_words -. base.gc.gc_promoted_words;
        gc_major_words = b.gc.gc_major_words -. base.gc.gc_major_words;
        gc_minor_collections =
          b.gc.gc_minor_collections - base.gc.gc_minor_collections;
        gc_major_collections =
          b.gc.gc_major_collections - base.gc.gc_major_collections;
        gc_compactions = b.gc.gc_compactions - base.gc.gc_compactions;
        gc_heap_words = b.gc.gc_heap_words;
        gc_top_heap_words = b.gc.gc_top_heap_words;
      }
    in
    { counters; gauges = b.gauges; histograms; spans; gc }

  (* Hand-rolled JSON: no JSON library is vendored. Names are ASCII
     dotted identifiers, for which OCaml's [%S] escaping coincides with
     JSON string escaping. *)
  let to_json t =
    let buf = Buffer.create 1024 in
    let bpf fmt = Printf.bprintf buf fmt in
    let obj items render =
      let first = ref true in
      List.iter
        (fun (name, v) ->
          if !first then first := false else bpf ",";
          bpf "%S:" name;
          render v)
        items
    in
    bpf "{\"schema\":\"maxrs.stats/1\",\"enabled\":%b," (enabled ());
    bpf "\"counters\":{";
    obj t.counters (fun v -> bpf "%d" v);
    bpf "},\"gauges\":{";
    obj t.gauges (fun (last, max) ->
        bpf "{\"last\":%d,\"max\":%d}" last max);
    bpf "},\"histograms\":{";
    obj t.histograms (fun h ->
        bpf "{\"count\":%d,\"sum\":%d,\"max\":%d,\"buckets\":{" h.hs_count
          h.hs_sum h.hs_max;
        obj
          (List.map (fun (i, c) -> (string_of_int i, c)) h.hs_buckets)
          (fun c -> bpf "%d" c);
        bpf "}}");
    bpf "},\"spans\":{";
    obj t.spans (fun s ->
        bpf "{\"count\":%d,\"total_ns\":%d,\"max_ns\":%d,\"counters\":{"
          s.sp_count s.sp_total_ns s.sp_max_ns;
        obj s.sp_counters (fun v -> bpf "%d" v);
        bpf "},\"gc\":{";
        bpf
          "\"minor_words\":%.0f,\"promoted_words\":%.0f,\"major_words\":%.0f,"
          s.sp_gc.sg_minor_words s.sp_gc.sg_promoted_words
          s.sp_gc.sg_major_words;
        bpf "\"minor_collections\":%d,\"major_collections\":%d,"
          s.sp_gc.sg_minor_collections s.sp_gc.sg_major_collections;
        bpf "\"top_heap_words\":%d}}" s.sp_gc.sg_top_heap_words);
    bpf "},\"gc\":{";
    bpf "\"minor_words\":%.0f,\"promoted_words\":%.0f,\"major_words\":%.0f,"
      t.gc.gc_minor_words t.gc.gc_promoted_words t.gc.gc_major_words;
    bpf "\"minor_collections\":%d,\"major_collections\":%d,\"compactions\":%d,"
      t.gc.gc_minor_collections t.gc.gc_major_collections t.gc.gc_compactions;
    bpf "\"heap_words\":%d,\"top_heap_words\":%d}" t.gc.gc_heap_words
      t.gc.gc_top_heap_words;
    bpf "}";
    Buffer.contents buf
end
