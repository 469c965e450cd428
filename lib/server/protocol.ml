(* Length-prefixed binary wire protocol for the serving tier. See
   protocol.mli for the frame layout and the decoding discipline. All
   multi-byte integers are big-endian; floats travel as their IEEE-754
   bit patterns (bit-exact round-trip, NaN payloads included — the
   qcheck battery relies on it). *)

let magic = "JGS1"
let header_len = 10

type limits = { max_payload : int; max_samples : int; max_string : int }

let default_limits =
  { max_payload = 64 * 1024 * 1024; max_samples = 1 lsl 22; max_string = 256 }

(* ------------------------------------------------------------------ *)
(* Frame kinds and response statuses *)

let k_ping = 0x01
let k_recon = 0x02
let k_metrics = 0x03
let k_stats = 0x04
let k_pong = 0x80
let k_recon_ok = 0x81
let k_text = 0x82

type status =
  | Bad_request
  | Too_large
  | Shed
  | Draining
  | Timeout
  | Quota
  | Internal_error

let status_code = function
  | Bad_request -> 0x90
  | Too_large -> 0x91
  | Shed -> 0x92
  | Draining -> 0x93
  | Timeout -> 0x94
  | Quota -> 0x95
  | Internal_error -> 0x96

let status_of_code = function
  | 0x90 -> Some Bad_request
  | 0x91 -> Some Too_large
  | 0x92 -> Some Shed
  | 0x93 -> Some Draining
  | 0x94 -> Some Timeout
  | 0x95 -> Some Quota
  | 0x96 -> Some Internal_error
  | _ -> None

let status_name = function
  | Bad_request -> "bad-request"
  | Too_large -> "too-large"
  | Shed -> "shed"
  | Draining -> "draining"
  | Timeout -> "timeout"
  | Quota -> "quota"
  | Internal_error -> "internal"

let request_kind_valid k = k >= k_ping && k <= k_stats

let kind_valid k =
  request_kind_valid k
  || k = k_pong || k = k_recon_ok || k = k_text
  || status_of_code k <> None

(* ------------------------------------------------------------------ *)
(* Typed messages *)

type method_ = Adjoint | Cg of int

type recon_request = {
  tenant : string;
  backend : string;
  n : int;
  dims : int;
  method_ : method_;
  tol : float option;
  family : Numerics.Window.family option;
  transform : Nufft.Transform.t;
  omega : float array array;
  values : float array;
  density : float array option;
}

type request = Ping | Recon of recon_request | Metrics | Stats

type recon_response = {
  iterations : int;
  elapsed_s : float;
  image_n : int;
  image_dims : int;
  image : float array;
}

type response =
  | Pong
  | Recon_ok of recon_response
  | Text of string
  | Err of status * string

type error =
  | Bad_magic
  | Bad_kind of int
  | Oversized of { declared : int; limit : int }
  | Malformed of string

let error_message = function
  | Bad_magic -> "bad magic: not a JGS1 frame"
  | Bad_kind k -> Printf.sprintf "unknown frame kind 0x%02x" k
  | Oversized { declared; limit } ->
      Printf.sprintf "declared payload %d exceeds limit %d" declared limit
  | Malformed msg -> "malformed payload: " ^ msg

let status_of_error = function
  | Oversized _ -> Too_large
  | Bad_magic | Bad_kind _ | Malformed _ -> Bad_request

type frame = { kind : int; payload : string }

(* ------------------------------------------------------------------ *)
(* Codec primitives. Encoders size the whole frame first and write it
   into one [Bytes] through a cursor; readers walk a (string, cursor)
   pair. Both move float arrays in plain loops over big-endian int64
   accesses, so no float is boxed on either side. *)

type writer = { dst : Bytes.t; mutable at : int }

let put_u8 w v =
  Bytes.set_uint8 w.dst w.at (v land 0xff);
  w.at <- w.at + 1

let put_u16 w v =
  put_u8 w (v lsr 8);
  put_u8 w v

let put_u32 w v =
  put_u16 w (v lsr 16);
  put_u16 w v

let put_f64 w v =
  Bytes.set_int64_be w.dst w.at (Int64.bits_of_float v);
  w.at <- w.at + 8

let put_bytes w s =
  Bytes.blit_string s 0 w.dst w.at (String.length s);
  w.at <- w.at + String.length s

let put_string w s =
  put_u16 w (String.length s);
  put_bytes w s

let put_floats w (a : float array) =
  let dst = w.dst and at = w.at in
  for i = 0 to Array.length a - 1 do
    Bytes.set_int64_be dst (at + (8 * i)) (Int64.bits_of_float a.(i))
  done;
  w.at <- at + (8 * Array.length a)

let string_len s = 2 + String.length s
let floats_len a = 8 * Array.length a

(* A writer over a fresh frame of exactly [header_len + payload_len]
   bytes, its header already written. *)
let frame_writer ~kind payload_len =
  let w = { dst = Bytes.create (header_len + payload_len); at = 0 } in
  put_bytes w magic;
  put_u8 w kind;
  put_u8 w 0 (* flags, reserved *);
  put_u32 w payload_len;
  w

let finish w =
  assert (w.at = Bytes.length w.dst);
  Bytes.unsafe_to_string w.dst

(* A reader is a (string, cursor) pair; every get checks bounds and
   raises [Short] which the decoder turns into a typed [Malformed]. *)
exception Short of string

type reader = { src : string; mutable pos : int }

let need r n what =
  if r.pos + n > String.length r.src then raise (Short what)

let get_u8 r what =
  need r 1 what;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u16 r what =
  let hi = get_u8 r what in
  let lo = get_u8 r what in
  (hi lsl 8) lor lo

let get_u32 r what =
  let hi = get_u16 r what in
  let lo = get_u16 r what in
  (hi lsl 16) lor lo

let get_f64 r what =
  need r 8 what;
  let v = Int64.float_of_bits (String.get_int64_be r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let get_string r limits what =
  let len = get_u16 r what in
  if len > limits.max_string then
    raise (Short (Printf.sprintf "%s longer than %d" what limits.max_string));
  need r len what;
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let get_floats r n what =
  need r (8 * n) what;
  let a = Array.create_float n in
  let src = r.src and pos = r.pos in
  for i = 0 to n - 1 do
    a.(i) <- Int64.float_of_bits (String.get_int64_be src (pos + (8 * i)))
  done;
  r.pos <- pos + (8 * n);
  a

(* ------------------------------------------------------------------ *)
(* Frame envelope *)

let encode_frame ~kind payload =
  let w = frame_writer ~kind (String.length payload) in
  put_bytes w payload;
  finish w

(* ------------------------------------------------------------------ *)
(* Request payloads *)

let family_code = function
  | None -> 0
  | Some Numerics.Window.KB -> 1
  | Some Numerics.Window.ES -> 2

let family_of_code = function
  | 0 -> Ok None
  | 1 -> Ok (Some Numerics.Window.KB)
  | 2 -> Ok (Some Numerics.Window.ES)
  | c -> Error (Printf.sprintf "unknown kernel family code %d" c)

let recon_payload_len (r : recon_request) =
  string_len r.tenant + string_len r.backend
  + 5 (* method, cg iterations *) + 4 (* n *) + 1 (* dims *)
  + 9 (* tol flag, tol *) + 1 (* family *) + 1 (* transform *) + 4 (* m *)
  + Array.fold_left (fun acc axis -> acc + floats_len axis) 0 r.omega
  + floats_len r.values
  + 1 (* density flag *)
  + match r.density with None -> 0 | Some d -> floats_len d

let encode_recon (r : recon_request) =
  let w = frame_writer ~kind:k_recon (recon_payload_len r) in
  put_string w r.tenant;
  put_string w r.backend;
  (match r.method_ with
  | Adjoint ->
      put_u8 w 0;
      put_u32 w 0
  | Cg iters ->
      put_u8 w 1;
      put_u32 w iters);
  put_u32 w r.n;
  put_u8 w r.dims;
  (match r.tol with
  | None ->
      put_u8 w 0;
      put_f64 w 0.0
  | Some tol ->
      put_u8 w 1;
      put_f64 w tol);
  put_u8 w (family_code r.family);
  put_u8 w (Nufft.Transform.code r.transform);
  let m = Array.length r.values / 2 in
  put_u32 w m;
  Array.iter (put_floats w) r.omega;
  put_floats w r.values;
  (match r.density with
  | None -> put_u8 w 0
  | Some d ->
      put_u8 w 1;
      put_floats w d);
  finish w

let decode_recon_payload limits payload =
  let r = { src = payload; pos = 0 } in
  try
    let tenant = get_string r limits "tenant" in
    let backend = get_string r limits "backend" in
    let mcode = get_u8 r "method" in
    let iters = get_u32 r "cg iterations" in
    let method_ =
      match mcode with
      | 0 -> Adjoint
      | 1 -> Cg iters
      | c -> raise (Short (Printf.sprintf "unknown method code %d" c))
    in
    let n = get_u32 r "n" in
    let dims = get_u8 r "dims" in
    if dims < 1 || dims > 3 then
      raise (Short (Printf.sprintf "dims %d not in 1..3" dims));
    let has_tol = get_u8 r "tol flag" in
    let tolv = get_f64 r "tol" in
    let tol = if has_tol <> 0 then Some tolv else None in
    let family =
      match family_of_code (get_u8 r "family") with
      | Ok f -> f
      | Error msg -> raise (Short msg)
    in
    let transform =
      let c = get_u8 r "transform" in
      match Nufft.Transform.of_code c with
      | Some t -> t
      | None -> raise (Short (Printf.sprintf "unknown transform code %d" c))
    in
    let m = get_u32 r "m" in
    if m > limits.max_samples then
      raise
        (Short (Printf.sprintf "m %d exceeds limit %d" m limits.max_samples));
    let omega = Array.init dims (fun d ->
        get_floats r m (Printf.sprintf "omega axis %d" d))
    in
    let values = get_floats r (2 * m) "values" in
    let density =
      if get_u8 r "density flag" <> 0 then Some (get_floats r m "density")
      else None
    in
    if r.pos <> String.length payload then
      Error
        (Malformed
           (Printf.sprintf "%d trailing bytes after recon request"
              (String.length payload - r.pos)))
    else
      Ok
        { tenant; backend; n; dims; method_; tol; family; transform; omega;
          values; density }
  with Short what -> Error (Malformed ("truncated or invalid " ^ what))

let encode_request ?(limits = default_limits) req =
  ignore limits;
  match req with
  | Ping -> encode_frame ~kind:k_ping ""
  | Metrics -> encode_frame ~kind:k_metrics ""
  | Stats -> encode_frame ~kind:k_stats ""
  | Recon r -> encode_recon r

let decode_request ?(limits = default_limits) (f : frame) =
  if f.kind = k_ping then
    if f.payload = "" then Ok Ping else Error (Malformed "ping carries payload")
  else if f.kind = k_metrics then
    if f.payload = "" then Ok Metrics
    else Error (Malformed "metrics carries payload")
  else if f.kind = k_stats then
    if f.payload = "" then Ok Stats
    else Error (Malformed "stats carries payload")
  else if f.kind = k_recon then
    Result.map (fun r -> Recon r) (decode_recon_payload limits f.payload)
  else Error (Bad_kind f.kind)

(* ------------------------------------------------------------------ *)
(* Response payloads *)

let encode_response = function
  | Pong -> encode_frame ~kind:k_pong ""
  | Text s -> encode_frame ~kind:k_text s
  | Err (status, msg) -> encode_frame ~kind:(status_code status) msg
  | Recon_ok r ->
      (* iterations, elapsed, image n, image dims, then the image *)
      let w = frame_writer ~kind:k_recon_ok (17 + floats_len r.image) in
      put_u32 w r.iterations;
      put_f64 w r.elapsed_s;
      put_u32 w r.image_n;
      put_u8 w r.image_dims;
      put_floats w r.image;
      finish w

let decode_response (f : frame) =
  if f.kind = k_pong then
    if f.payload = "" then Ok Pong else Error (Malformed "pong carries payload")
  else if f.kind = k_text then Ok (Text f.payload)
  else
    match status_of_code f.kind with
    | Some status -> Ok (Err (status, f.payload))
    | None ->
        if f.kind <> k_recon_ok then Error (Bad_kind f.kind)
        else
          let r = { src = f.payload; pos = 0 } in
          (try
             let iterations = get_u32 r "iterations" in
             let elapsed_s = get_f64 r "elapsed" in
             let image_n = get_u32 r "image n" in
             let image_dims = get_u8 r "image dims" in
             let rem = String.length f.payload - r.pos in
             if rem mod 8 <> 0 then raise (Short "image bytes");
             let image = get_floats r (rem / 8) "image" in
             Ok (Recon_ok { iterations; elapsed_s; image_n; image_dims; image })
           with Short what -> Error (Malformed ("truncated " ^ what)))

(* ------------------------------------------------------------------ *)
(* Incremental frame decoder *)

module Decoder = struct
  type state = Ready | Failed of error

  type t = {
    limits : limits;
    mutable buf : Bytes.t;
    mutable len : int;  (* live bytes in [buf] starting at 0 *)
    mutable state : state;
  }

  let initial_capacity = 256

  (* A drained buffer larger than this goes back to [initial_capacity],
     so one huge frame does not pin its buffer for the life of a
     keep-alive connection. Serve-sized frames (~123 KB) stay below it
     and keep their buffer across requests; a stream of frames over
     1 MiB re-grows the buffer for each one. *)
  let retained_capacity = 1 lsl 20

  let create ?(limits = default_limits) () =
    { limits; buf = Bytes.create initial_capacity; len = 0; state = Ready }

  let pending_bytes t = t.len
  let capacity t = Bytes.length t.buf

  let feed t s off n =
    if off < 0 || n < 0 || off + n > String.length s then
      invalid_arg "Protocol.Decoder.feed: bad substring";
    (match t.state with
    | Failed _ -> () (* poisoned: the connection is about to close *)
    | Ready ->
        if t.len + n > Bytes.length t.buf then begin
          let cap = max (t.len + n) (2 * Bytes.length t.buf) in
          let grown = Bytes.create cap in
          Bytes.blit t.buf 0 grown 0 t.len;
          t.buf <- grown
        end;
        Bytes.blit_string s off t.buf t.len n;
        t.len <- t.len + n)

  let feed_string t s = feed t s 0 (String.length s)

  let consume t n =
    Bytes.blit t.buf n t.buf 0 (t.len - n);
    t.len <- t.len - n;
    if t.len = 0 && Bytes.length t.buf > retained_capacity then
      t.buf <- Bytes.create initial_capacity

  (* One frame if a full one is buffered; [Ok None] when more bytes are
     needed. Header validation is eager: a bad magic or an oversized
     declared length fails as soon as the header is complete, without
     waiting for (or buffering) the declared payload. A failed decoder
     stays failed — the transport is untrustworthy after a framing
     error, so the server closes the connection. *)
  let next t =
    match t.state with
    | Failed e -> Error e
    | Ready ->
        if t.len < header_len then Ok None
        else begin
          let ok_magic =
            Bytes.get t.buf 0 = magic.[0]
            && Bytes.get t.buf 1 = magic.[1]
            && Bytes.get t.buf 2 = magic.[2]
            && Bytes.get t.buf 3 = magic.[3]
          in
          if not ok_magic then begin
            t.state <- Failed Bad_magic;
            Error Bad_magic
          end
          else
            let kind = Char.code (Bytes.get t.buf 4) in
            let declared =
              let b i = Char.code (Bytes.get t.buf i) in
              (b 6 lsl 24) lor (b 7 lsl 16) lor (b 8 lsl 8) lor b 9
            in
            if not (kind_valid kind) then begin
              let e = Bad_kind kind in
              t.state <- Failed e;
              Error e
            end
            else if declared > t.limits.max_payload then begin
              let e =
                Oversized { declared; limit = t.limits.max_payload }
              in
              t.state <- Failed e;
              Error e
            end
            else if t.len < header_len + declared then Ok None
            else begin
              let payload =
                Bytes.sub_string t.buf header_len declared
              in
              consume t (header_len + declared);
              Ok (Some { kind; payload })
            end
        end
end

(* ------------------------------------------------------------------ *)
(* HTTP sniffing *)

let looks_like_http prefix =
  let starts p =
    String.length prefix >= String.length p
    && String.sub prefix 0 (String.length p) = p
  in
  starts "GET " || starts "HEAD" || starts "POST" || starts "PUT "

(* ------------------------------------------------------------------ *)
(* Structural equality helpers (bit-exact on floats), for tests *)

let float_bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let floats_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if not (float_bits_equal x b.(i)) then ok := false) a;
      !ok)

let opt_floats_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> floats_equal a b
  | _ -> false

let recon_request_equal (a : recon_request) (b : recon_request) =
  a.tenant = b.tenant && a.backend = b.backend && a.n = b.n && a.dims = b.dims
  && a.method_ = b.method_
  && (match (a.tol, b.tol) with
     | None, None -> true
     | Some x, Some y -> float_bits_equal x y
     | _ -> false)
  && a.family = b.family
  && a.transform = b.transform
  && Array.length a.omega = Array.length b.omega
  && Array.for_all2 floats_equal a.omega b.omega
  && floats_equal a.values b.values
  && opt_floats_equal a.density b.density

let request_equal a b =
  match (a, b) with
  | Ping, Ping | Metrics, Metrics | Stats, Stats -> true
  | Recon x, Recon y -> recon_request_equal x y
  | _ -> false
