(** Length-prefixed binary wire protocol for the serving tier.

    Every message is one {e frame}:

    {v
      +------+------+-------+-------------+-----------------+
      | "JGS1" (4)  | kind  | flags (1,0) | length u32 BE   |  payload ...
      +------+------+-------+-------------+-----------------+
    v}

    10 header bytes, then [length] payload bytes. Kinds [0x01-0x04] are
    requests (ping / recon / metrics / stats), [0x80-0x82] successful
    responses (pong / recon result / text), [0x90-0x96] typed error
    statuses (the binary analogue of HTTP 4xx/5xx). Integers are
    big-endian; floats are IEEE-754 bit patterns via [Int64], so
    encode/decode round-trips are bit-exact (NaNs included — the qcheck
    battery depends on this).

    Decoding is defensive by construction: the incremental {!Decoder}
    validates the header as soon as its 10 bytes arrive (bad magic,
    unknown kind, and oversized declared lengths are rejected {e before}
    any payload is buffered), payload decoders bounds-check every read
    and return typed {!error}s, and a decoder that has failed stays
    failed — after a framing error the byte stream cannot be trusted, so
    the server answers with the mapped status and closes the
    connection. *)

val magic : string
(** ["JGS1"]. *)

val header_len : int
(** 10. *)

type limits = {
  max_payload : int;  (** frame payload byte cap *)
  max_samples : int;  (** recon sample-count cap *)
  max_string : int;  (** tenant/backend name length cap *)
}

val default_limits : limits
(** 64 MiB payloads, [2^22] samples, 256-byte names. *)

(** {1 Typed messages} *)

type status =
  | Bad_request  (** malformed frame or semantically invalid request *)
  | Too_large  (** declared payload exceeds {!limits} *)
  | Shed  (** admission queue full — retry later (HTTP 429 analogue) *)
  | Draining  (** server is draining; no new work (HTTP 503 analogue) *)
  | Timeout  (** read timed out mid-request (slow-loris defence) *)
  | Quota  (** per-tenant quota exceeded *)
  | Internal_error

val status_code : status -> int
val status_of_code : int -> status option
val status_name : status -> string

type method_ = Adjoint | Cg of int  (** direct adjoint, or CG iterations *)

type recon_request = {
  tenant : string;
  backend : string;  (** pipeline backend name, [""] = default *)
  n : int;  (** image grid size per side *)
  dims : int;  (** 1..3 *)
  method_ : method_;
  tol : float option;  (** plan accuracy target *)
  family : Numerics.Window.family option;  (** kernel family override *)
  transform : Nufft.Transform.t;
      (** transform type, one wire byte ({!Nufft.Transform.code}) after
          the family byte. Type-1 reconstructs; type-3 treats [omega] as
          arbitrary source frequencies and reconstructs on the lattice.
          Type-2 decodes but is rejected at the serving layer: JGS1 recon
          frames carry one value per sample, not the [n^dims] image a
          forward evaluation consumes. *)
  omega : float array array;  (** [dims] axes of [m] radians, [-pi, pi) *)
  values : float array;  (** [2m] interleaved re/im sample values *)
  density : float array option;  (** [m] compensation weights *)
}

type request = Ping | Recon of recon_request | Metrics | Stats

type recon_response = {
  iterations : int;
  elapsed_s : float;
  image_n : int;
  image_dims : int;
  image : float array;  (** [2 * image_n^image_dims] interleaved re/im *)
}

type response =
  | Pong
  | Recon_ok of recon_response
  | Text of string  (** metrics / stats payloads *)
  | Err of status * string

(** {1 Errors} *)

type error =
  | Bad_magic
  | Bad_kind of int
  | Oversized of { declared : int; limit : int }
  | Malformed of string

val error_message : error -> string

val status_of_error : error -> status
(** The wire status a server answers with: {!Oversized} maps to
    {!Too_large}, everything else to {!Bad_request}. *)

(** {1 Frames and codecs} *)

type frame = { kind : int; payload : string }

val encode_frame : kind:int -> string -> string

val encode_request : ?limits:limits -> request -> string
val decode_request : ?limits:limits -> frame -> (request, error) result

val encode_response : response -> string
val decode_response : frame -> (response, error) result

(** {1 Incremental decoder}

    Feed arbitrary byte fragments as they arrive from a socket; pull
    complete frames out. Tolerant of any fragmentation (torn reads at
    every byte boundary — property-tested), intolerant of garbage: the
    first framing error poisons the decoder permanently. *)
module Decoder : sig
  type t

  val create : ?limits:limits -> unit -> t

  val feed : t -> string -> int -> int -> unit
  (** [feed t s off n] appends [s[off .. off+n)] to the buffer. The bytes
      are copied before [feed] returns and [s] is not retained, so a
      connection may pass its reused read chunk. No-op on a poisoned
      decoder. Raises [Invalid_argument] on a bad substring. *)

  val feed_string : t -> string -> unit

  val next : t -> (frame option, error) result
  (** [Ok (Some f)] — a complete frame (consumed from the buffer);
      [Ok None] — need more bytes; [Error e] — framing error, decoder
      is now poisoned and every later call returns the same error. *)

  val pending_bytes : t -> int
  (** Bytes buffered but not yet consumed as frames. 0 after the last
      complete frame of a well-formed stream — the keep-alive
      state-isolation property tests assert this. *)

  val capacity : t -> int
  (** Current buffer size in bytes, for tests. Once drained, a buffer
      grown past 1 MiB returns to its initial 256 bytes; smaller ones
      are kept for the next frame. So a connection whose frames exceed
      1 MiB (a 2D n = 256 image response is 1,048,603 bytes) re-grows
      the buffer by doubling for every frame. *)
end

(** {1 HTTP interop} *)

val looks_like_http : string -> bool
(** [true] if a connection's first bytes look like an HTTP/1.1 request
    line ([GET ] / [HEAD] / [POST] / [PUT ]) rather than a JGS1 frame —
    the server sniffs this to serve [/metrics] and [/healthz] to plain
    [curl]. *)

(** {1 Structural equality (bit-exact floats) — for tests} *)

val recon_request_equal : recon_request -> recon_request -> bool
val request_equal : request -> request -> bool
