exception Parse_error of string

let fail line msg = raise (Parse_error (Printf.sprintf "%s: %S" msg line))

let fields line =
  String.split_on_char ',' line
  |> List.map (fun f ->
         let f = String.trim f in
         match float_of_string_opt f with
         (* [float_of_string] accepts "nan" and "inf"; a non-finite
            coordinate or weight would silently poison every downstream
            comparison, so reject it at the boundary. *)
         | Some v when Float.is_finite v -> v
         | Some _ -> fail line "non-finite value"
         | None -> fail line "not a number")

let parse_weighted_line ?(unweighted = false) line =
  match fields line with
  | [] -> fail line "empty record"
  | fs when unweighted -> (Array.of_list fs, 1.)
  | [ _ ] -> fail line "weighted record needs at least x,weight"
  | fs -> (
      match List.rev fs with
      | w :: coords -> (Array.of_list (List.rev coords), w)
      | [] -> assert false)

let parse_colored_line line =
  match fields line with
  | [ x; y; c ] ->
      if Float.is_integer c && c >= 0. then ((x, y), int_of_float c)
      else fail line "color must be a non-negative integer"
  | _ -> fail line "colored record must be x,y,color"

let parse_1d_line line =
  match fields line with
  | [ x; w ] -> (x, w)
  | [ x ] -> (x, 1.)
  | _ -> fail line "1-D record must be x[,weight]"

let max_line_bytes = 65536

(* Bounded line reader: [In_channel.input_line] buffers an adversarially
   long line wholesale before the caller sees a byte of it, so a crafted
   input could exhaust memory with a single newline-free record. Reading
   char-by-char (through the channel's buffer, so still cheap) caps the
   record length and surfaces the structured [Guard] error — with the
   1-based line number — instead of unbounded buffering. *)
let input_line_bounded ic ~lineno =
  let buf = Buffer.create 80 in
  let rec go () =
    match In_channel.input_char ic with
    | None -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | Some '\n' -> Some (Buffer.contents buf)
    | Some c ->
        if Buffer.length buf >= max_line_bytes then
          Maxrs_resilience.Guard.ok_exn
            (Maxrs_resilience.Guard.invalid ~index:lineno ~field:"input line"
               (Printf.sprintf "record exceeds %d bytes" max_line_bytes))
        else begin
          Buffer.add_char buf c;
          go ()
        end
  in
  go ()

(* Physical 1-based line numbers (comments and blank lines count), so a
   reported position matches what an editor shows. [String.trim] strips
   the '\r' of CRLF files and trailing whitespace. *)
let read_data_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line_bounded ic ~lineno with
        | Some l ->
            let l = String.trim l in
            if l = "" || l.[0] = '#' then go (lineno + 1) acc
            else go (lineno + 1) ((lineno, l) :: acc)
        | None -> List.rev acc
      in
      go 1 [])

let parse_at parse (lineno, l) =
  try parse l
  with Parse_error msg ->
    raise (Parse_error (Printf.sprintf "line %d: %s" lineno msg))

let load_weighted ?unweighted path =
  Array.of_list
    (List.map
       (parse_at (parse_weighted_line ?unweighted))
       (read_data_lines path))

let load_colored path =
  let rows = List.map (parse_at parse_colored_line) (read_data_lines path) in
  (Array.of_list (List.map fst rows), Array.of_list (List.map snd rows))

let load_1d path =
  Array.of_list (List.map (parse_at parse_1d_line) (read_data_lines path))

let format_weighted buf pts =
  Array.iter
    (fun (p, w) ->
      Array.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%.17g," c)) p;
      Buffer.add_string buf (Printf.sprintf "%.17g\n" w))
    pts

let format_colored buf pts colors =
  Array.iteri
    (fun i (x, y) ->
      Buffer.add_string buf (Printf.sprintf "%.17g,%.17g,%d\n" x y colors.(i)))
    pts

let write_file path buf =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)

let save_weighted path pts =
  let buf = Buffer.create 4096 in
  format_weighted buf pts;
  write_file path buf

let save_colored path pts colors =
  assert (Array.length pts = Array.length colors);
  let buf = Buffer.create 4096 in
  format_colored buf pts colors;
  write_file path buf
