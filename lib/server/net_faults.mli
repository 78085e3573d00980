(** Deterministic fault-injecting proxy — the network-layer sibling of
    {!Maxrs.Parallel.Faults}, configured by [MAXRS_NET_FAULTS=<seed>:<rate>].

    The proxy forwards bytes between client and server; whether a
    forwarded chunk is faulted — torn, bit-flipped, replaced with an
    oversized length header, stalled (slow-loris), or dropped with the
    connection — is a pure function of (connection, direction, chunk)
    under the seed, so a failing chaos run replays exactly. *)

type config = { seed : int; rate : float }

val of_string : string -> config option
(** Parse ["<seed>:<rate>"]; rates clamp to [0, 1]. *)

val of_env : unit -> config option
(** Read [MAXRS_NET_FAULTS]. *)

type fault = Tear | Flip | Oversize | Stall | Disconnect

val decide : config -> conn:int -> dir:int -> chunk:int -> fault option
(** The pure fault schedule ([dir] 0 = client→server, 1 = reverse). *)

type t

val start : listen:Netio.addr -> upstream:Netio.addr -> config -> (t, string) result
(** Accept on [listen], relay every connection to [upstream] through
    the fault schedule. *)

val injected_count : t -> int

val faulted_connections : t -> int list
(** 1-based indexes (accept order) of connections that received at
    least one injected fault — tests assert that the {e other}
    connections' replies are bit-identical to a fault-free run. *)

val shutdown : t -> unit
