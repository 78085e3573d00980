(* The load: one connection, one outstanding request, no extra threads —
   a closed loop like [Client] and [maxrs_cli solve --remote]. *)

module Proto = Maxrs_server.Proto
module Netio = Maxrs_server.Netio

type t = { fd : Unix.file_descr; mutable next_id : int }

let connect path =
  match Netio.connect (Netio.Unix_sock path) with
  | Ok fd -> Ok { fd; next_id = 1 }
  | Error m -> Error m

let close t = Netio.close_noerr t.fd

(* One round trip. Transport and decode failures come back as [Error]
   with a reason; a reply for the wrong request id is one too. *)
let call t req =
  let id = t.next_id in
  t.next_id <- id + 1;
  match Netio.send ~deadline:60. t.fd (Proto.encode_request ~id req) with
  | Error e -> Error ("send: " ^ Netio.error_to_string e)
  | Ok () -> (
      match Netio.recv ~idle:120. ~frame:60. ~max_frame:(1 lsl 26) t.fd with
      | Error e -> Error ("recv: " ^ Netio.error_to_string e)
      | Ok payload -> (
          match Proto.decode_reply payload with
          | Error m -> Error ("decode: " ^ m)
          | Ok (rid, _) when rid <> id ->
              Error (Printf.sprintf "reply id %d for request %d" rid id)
          | Ok (_, reply) -> Ok reply))

let timed_call t req =
  let t0 = Util.now () in
  let r = call t req in
  (r, Util.now () -. t0)
