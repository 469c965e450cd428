(* Wire-protocol battery for the serving tier: encode/decode round-trips
   under arbitrary fragmentation (torn reads at every byte boundary),
   oversized and malformed input rejected with typed errors, and no
   partial-state leakage across keep-alive requests on one decoder. *)

module P = Serving.Protocol

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_name =
  QCheck.Gen.(
    let* n = int_range 0 12 in
    string_size ~gen:(char_range 'a' 'z') (return n))

let gen_float = QCheck.Gen.float

let gen_omega_axis m =
  QCheck.Gen.(
    array_repeat m (float_range (-.Float.pi) (Float.pi -. 1e-9)))

let gen_recon_request =
  QCheck.Gen.(
    let* tenant = gen_name in
    let* backend = gen_name in
    let* n = int_range 2 64 in
    let* dims = int_range 1 3 in
    let* m = int_range 1 24 in
    let* method_ =
      oneof [ return P.Adjoint; map (fun k -> P.Cg k) (int_range 1 50) ]
    in
    let* tol = opt (float_range 1e-12 1e-1) in
    let* family =
      oneofl
        [ None; Some Numerics.Window.KB; Some Numerics.Window.ES ]
    in
    let* transform =
      oneofl
        Nufft.Transform.[ Type1; Type2; Type3 ]
    in
    let* omega = array_repeat dims (gen_omega_axis m) in
    let* values = array_size (return (2 * m)) gen_float in
    let* density = opt (array_size (return m) gen_float) in
    return
      { P.tenant; backend; transform; n; dims; method_; tol; family; omega;
        values; density })

let gen_request =
  QCheck.Gen.(
    frequency
      [ (1, return P.Ping);
        (1, return P.Metrics);
        (1, return P.Stats);
        (5, map (fun r -> P.Recon r) gen_recon_request) ])

let arb_request = QCheck.make gen_request

let decode_all bytes ~chunks =
  (* Feed [bytes] split at the given cut points; collect every frame. *)
  let dec = P.Decoder.create () in
  let frames = ref [] in
  let feed_piece s =
    P.Decoder.feed_string dec s;
    let rec pull () =
      match P.Decoder.next dec with
      | Ok (Some f) ->
          frames := f :: !frames;
          pull ()
      | Ok None -> ()
      | Error e -> Alcotest.failf "decoder error: %s" (P.error_message e)
    in
    pull ()
  in
  List.iter feed_piece chunks;
  ignore bytes;
  (List.rev !frames, P.Decoder.pending_bytes dec)

let split_at_points s points =
  let points = List.sort_uniq compare (0 :: String.length s :: points) in
  let rec pairs = function
    | a :: (b :: _ as rest) -> String.sub s a (b - a) :: pairs rest
    | _ -> []
  in
  pairs points

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_roundtrip =
  QCheck.Test.make ~name:"request round-trips bit-exactly" ~count:200
    arb_request (fun req ->
      let bytes = P.encode_request req in
      let frames, pending = decode_all bytes ~chunks:[ bytes ] in
      match frames with
      | [ f ] -> (
          match P.decode_request f with
          | Ok req' -> pending = 0 && P.request_equal req req'
          | Error e -> QCheck.Test.fail_report (P.error_message e))
      | l -> QCheck.Test.fail_reportf "%d frames from one request" (List.length l))

let prop_fragmentation =
  (* A stream of several requests, torn at random byte positions, decodes
     to exactly the original sequence with an empty buffer at the end. *)
  QCheck.Test.make ~name:"arbitrary fragmentation preserves the stream"
    ~count:100
    QCheck.(
      make
        Gen.(
          let* reqs = list_size (int_range 1 5) gen_request in
          let bytes = String.concat "" (List.map P.encode_request reqs) in
          let* cuts =
            list_size (int_range 0 20) (int_range 0 (String.length bytes))
          in
          return (reqs, bytes, cuts)))
    (fun (reqs, bytes, cuts) ->
      let frames, pending = decode_all bytes ~chunks:(split_at_points bytes cuts) in
      pending = 0
      && List.length frames = List.length reqs
      && List.for_all2
           (fun req f ->
             match P.decode_request f with
             | Ok req' -> P.request_equal req req'
             | Error _ -> false)
           reqs frames)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response round-trips bit-exactly" ~count:200
    QCheck.(
      make
        Gen.(
          frequency
            [ (1, return P.Pong);
              (2, map (fun s -> P.Text s) (string_size (int_range 0 64)));
              ( 2,
                let* st =
                  oneofl
                    [ P.Bad_request; P.Too_large; P.Shed; P.Draining;
                      P.Timeout; P.Quota; P.Internal_error ]
                in
                let* msg = string_size (int_range 0 40) in
                return (P.Err (st, msg)) );
              ( 3,
                let* iterations = int_range 0 100 in
                let* elapsed_s = gen_float in
                let* image_n = int_range 2 32 in
                let* image =
                  array_size (int_range 0 64) gen_float
                in
                return
                  (P.Recon_ok
                     { P.iterations; elapsed_s; image_n; image_dims = 2;
                       image }) ) ]))
    (fun resp ->
      let bytes = P.encode_response resp in
      let dec = P.Decoder.create () in
      P.Decoder.feed_string dec bytes;
      match P.Decoder.next dec with
      | Ok (Some f) -> (
          match (P.decode_response f, resp) with
          | Ok P.Pong, P.Pong -> true
          | Ok (P.Text a), P.Text b -> a = b
          | Ok (P.Err (sa, ma)), P.Err (sb, mb) -> sa = sb && ma = mb
          | Ok (P.Recon_ok a), P.Recon_ok b ->
              a.P.iterations = b.P.iterations
              && Int64.bits_of_float a.P.elapsed_s
                 = Int64.bits_of_float b.P.elapsed_s
              && a.P.image_n = b.P.image_n
              && a.P.image_dims = b.P.image_dims
              && Array.length a.P.image = Array.length b.P.image
              && Array.for_all2
                   (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
                   a.P.image b.P.image
          | _ -> false)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Deterministic torn-read coverage: every byte boundary *)

let test_every_byte_boundary () =
  let req =
    P.Recon
      { P.tenant = "t"; backend = ""; transform = Nufft.Transform.Type1;
        n = 8; dims = 2; method_ = P.Adjoint;
        tol = Some 1e-6; family = Some Numerics.Window.ES;
        omega = [| [| 0.5; -1.0 |]; [| 1.5; -2.0 |] |];
        values = [| 1.0; 2.0; 3.0; 4.0 |]; density = None }
  in
  let bytes = P.encode_request req in
  let dec = P.Decoder.create () in
  (* one byte at a time; no frame may appear before the last byte *)
  for i = 0 to String.length bytes - 1 do
    (match P.Decoder.next dec with
    | Ok None -> ()
    | Ok (Some _) -> Alcotest.fail "frame completed early"
    | Error e -> Alcotest.failf "decoder error: %s" (P.error_message e));
    P.Decoder.feed dec bytes i 1
  done;
  (match P.Decoder.next dec with
  | Ok (Some f) -> (
      match P.decode_request f with
      | Ok req' -> checkb "byte-at-a-time round-trip" true (P.request_equal req req')
      | Error e -> Alcotest.failf "decode: %s" (P.error_message e))
  | _ -> Alcotest.fail "no frame after all bytes");
  check Alcotest.int "empty buffer" 0 (P.Decoder.pending_bytes dec)

(* ------------------------------------------------------------------ *)
(* Typed rejection *)

let expect_error name got =
  match got with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected a typed error" name

let test_bad_magic () =
  let dec = P.Decoder.create () in
  P.Decoder.feed_string dec "NOPE\x01\x00\x00\x00\x00\x00";
  (match P.Decoder.next dec with
  | Error P.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  (* poisoned: same error forever, feeding more changes nothing *)
  P.Decoder.feed_string dec (P.encode_request P.Ping);
  match P.Decoder.next dec with
  | Error P.Bad_magic -> ()
  | _ -> Alcotest.fail "decoder must stay poisoned"

let test_bad_kind () =
  let dec = P.Decoder.create () in
  P.Decoder.feed_string dec (P.encode_frame ~kind:0x7f "");
  match P.Decoder.next dec with
  | Error (P.Bad_kind 0x7f) -> ()
  | _ -> Alcotest.fail "expected Bad_kind 0x7f"

let test_oversized_header () =
  let limits = { P.default_limits with max_payload = 1024 } in
  let dec = P.Decoder.create ~limits () in
  (* header declares 1 MiB: rejected from the header alone, before any
     payload is buffered *)
  let b = Buffer.create 16 in
  Buffer.add_string b P.magic;
  Buffer.add_char b '\x02';
  Buffer.add_char b '\x00';
  Buffer.add_int32_be b 1_048_576l;
  P.Decoder.feed_string dec (Buffer.contents b);
  (match P.Decoder.next dec with
  | Error (P.Oversized { declared = 1_048_576; limit = 1024 }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (P.error_message e)
  | Ok _ -> Alcotest.fail "oversized frame accepted");
  check Alcotest.string "maps to Too_large" "too-large"
    (P.status_name (P.status_of_error (P.Oversized { declared = 0; limit = 0 })))

let test_oversized_strings_and_counts () =
  (* a tenant name longer than max_string is rejected by the payload
     decoder with a typed Malformed *)
  let long = String.make 300 'a' in
  let req =
    { P.tenant = long; backend = ""; transform = Nufft.Transform.Type1;
      n = 8; dims = 1; method_ = P.Adjoint;
      tol = None; family = None; omega = [| [| 0.0 |] |];
      values = [| 1.0; 0.0 |]; density = None }
  in
  let bytes = P.encode_request (P.Recon req) in
  let dec = P.Decoder.create () in
  P.Decoder.feed_string dec bytes;
  (match P.Decoder.next dec with
  | Ok (Some f) -> expect_error "long tenant" (P.decode_request f)
  | _ -> Alcotest.fail "frame expected");
  (* a declared sample count past max_samples is rejected before its
     arrays are materialised *)
  let limits = { P.default_limits with max_samples = 4 } in
  let req8 = { req with tenant = "t"; omega = [| Array.make 8 0.0 |];
               values = Array.make 16 0.0 } in
  let bytes = P.encode_request (P.Recon req8) in
  let dec = P.Decoder.create () in
  P.Decoder.feed_string dec bytes;
  match P.Decoder.next dec with
  | Ok (Some f) -> expect_error "m over limit" (P.decode_request ~limits f)
  | _ -> Alcotest.fail "frame expected"

let test_unknown_transform_code () =
  (* The transform type rides one wire byte (after the family byte);
     locate it by diffing two otherwise-identical requests, then verify
     an out-of-range code is rejected with a typed Malformed rather than
     silently defaulting. *)
  let payload_of transform =
    let bytes =
      P.encode_request
        (P.Recon
           { P.tenant = "t"; backend = ""; transform; n = 8; dims = 1;
             method_ = P.Adjoint; tol = None; family = None;
             omega = [| [| 0.25 |] |]; values = [| 1.0; 0.0 |];
             density = None })
    in
    String.sub bytes P.header_len (String.length bytes - P.header_len)
  in
  let p1 = payload_of Nufft.Transform.Type1 in
  let p3 = payload_of Nufft.Transform.Type3 in
  check Alcotest.int "same payload length" (String.length p1)
    (String.length p3);
  let diffs = ref [] in
  String.iteri (fun i c -> if c <> p3.[i] then diffs := i :: !diffs) p1;
  match !diffs with
  | [ i ] ->
      let mutated = Bytes.of_string p1 in
      Bytes.set mutated i '\xee';
      expect_error "unknown transform code"
        (P.decode_request { P.kind = 0x02; payload = Bytes.to_string mutated });
      (* the legitimate codes still decode *)
      List.iter
        (fun t ->
          match
            P.decode_request { P.kind = 0x02; payload = payload_of t }
          with
          | Ok (P.Recon r) ->
              checkb "transform code round-trips" true (r.P.transform = t)
          | _ -> Alcotest.fail "valid transform rejected")
        Nufft.Transform.[ Type1; Type2; Type3 ]
  | l ->
      Alcotest.failf "transform must occupy exactly one wire byte (%d differ)"
        (List.length l)

let test_truncated_and_trailing () =
  let req =
    { P.tenant = "t"; backend = ""; transform = Nufft.Transform.Type1;
      n = 8; dims = 1; method_ = P.Cg 3;
      tol = None; family = None; omega = [| [| 1.0; 2.0 |] |];
      values = [| 1.0; 0.0; 2.0; 0.0 |]; density = None }
  in
  let bytes = P.encode_request (P.Recon req) in
  let payload = String.sub bytes P.header_len (String.length bytes - P.header_len) in
  (* truncate the payload but declare the shorter length honestly: the
     frame parses, the payload decoder reports a typed Malformed *)
  let cut = String.sub payload 0 (String.length payload - 3) in
  expect_error "truncated payload"
    (P.decode_request { P.kind = 0x02; payload = cut });
  (* trailing garbage after a complete payload is equally typed *)
  expect_error "trailing bytes"
    (P.decode_request { P.kind = 0x02; payload = payload ^ "xyz" })

let test_keepalive_no_state_leakage () =
  (* A half-fed second request must not perturb the first, and a decoder
     never hands back bytes from a previous frame: run three distinct
     requests through one decoder with a deliberately split middle
     request. *)
  let reqs =
    [ P.Ping;
      P.Recon
        { P.tenant = "a"; backend = "serial"; transform = Nufft.Transform.Type1;
          n = 16; dims = 2;
          method_ = P.Adjoint; tol = None; family = None;
          omega = [| [| 0.1; 0.2; 0.3 |]; [| -0.1; -0.2; -0.3 |] |];
          values = [| 1.; 0.; 2.; 0.; 3.; 0. |]; density = Some [| 1.; 1.; 1. |] };
      P.Metrics ]
  in
  let encoded = List.map P.encode_request reqs in
  let dec = P.Decoder.create () in
  let decoded = ref [] in
  let pull () =
    let rec go () =
      match P.Decoder.next dec with
      | Ok (Some f) ->
          (match P.decode_request f with
          | Ok r -> decoded := r :: !decoded
          | Error e -> Alcotest.failf "decode: %s" (P.error_message e));
          go ()
      | Ok None -> ()
      | Error e -> Alcotest.failf "decoder: %s" (P.error_message e)
    in
    go ()
  in
  (match encoded with
  | [ a; b; c ] ->
      P.Decoder.feed_string dec a;
      pull ();
      check Alcotest.int "first frame decoded alone" 1 (List.length !decoded);
      check Alcotest.int "no residue" 0 (P.Decoder.pending_bytes dec);
      (* split the second request across two feeds, interleaved with pulls *)
      let half = String.length b / 2 in
      P.Decoder.feed_string dec (String.sub b 0 half);
      pull ();
      check Alcotest.int "half a frame yields nothing" 1 (List.length !decoded);
      P.Decoder.feed_string dec (String.sub b half (String.length b - half));
      P.Decoder.feed_string dec c;
      pull ()
  | _ -> assert false);
  check Alcotest.int "all frames decoded" 3 (List.length !decoded);
  check Alcotest.int "empty at end" 0 (P.Decoder.pending_bytes dec);
  List.iter2
    (fun want got ->
      checkb "keep-alive round-trip" true (P.request_equal want got))
    reqs (List.rev !decoded)

let test_http_sniff () =
  checkb "GET" true (P.looks_like_http "GET /metrics HTTP/1.1\r\n");
  checkb "jgs1 frame" false (P.looks_like_http (P.encode_request P.Ping));
  checkb "short" false (P.looks_like_http "GE")

(* ------------------------------------------------------------------ *)
(* Wire-format pins: golden frames, and the element-wise Buffer encoder
   the exact-size encoders replaced, kept verbatim as a byte oracle *)

module Oracle = struct
  let magic = P.magic
  let header_len = P.header_len
  let k_ping = 0x01
  let k_recon = 0x02
  let k_metrics = 0x03
  let k_stats = 0x04
  let k_pong = 0x80
  let k_recon_ok = 0x81
  let k_text = 0x82
  let status_code = P.status_code

  let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let put_u16 b v =
    put_u8 b (v lsr 8);
    put_u8 b v

  let put_u32 b v =
    put_u8 b (v lsr 24);
    put_u8 b (v lsr 16);
    put_u8 b (v lsr 8);
    put_u8 b v

  let put_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

  let put_string b s =
    put_u16 b (String.length s);
    Buffer.add_string b s

  let put_floats b a = Array.iter (put_f64 b) a

  let encode_frame ~kind payload =
    let b = Buffer.create (header_len + String.length payload) in
    Buffer.add_string b magic;
    put_u8 b kind;
    put_u8 b 0 (* flags, reserved *);
    put_u32 b (String.length payload);
    Buffer.add_string b payload;
    Buffer.contents b

  let family_code = function
    | None -> 0
    | Some Numerics.Window.KB -> 1
    | Some Numerics.Window.ES -> 2

  let encode_recon_payload (r : P.recon_request) =
    let b = Buffer.create 1024 in
    put_string b r.tenant;
    put_string b r.backend;
    (match r.method_ with
    | Adjoint ->
        put_u8 b 0;
        put_u32 b 0
    | Cg iters ->
        put_u8 b 1;
        put_u32 b iters);
    put_u32 b r.n;
    put_u8 b r.dims;
    (match r.tol with
    | None ->
        put_u8 b 0;
        put_f64 b 0.0
    | Some tol ->
        put_u8 b 1;
        put_f64 b tol);
    put_u8 b (family_code r.family);
    put_u8 b (Nufft.Transform.code r.transform);
    let m = Array.length r.values / 2 in
    put_u32 b m;
    Array.iter (put_floats b) r.omega;
    put_floats b r.values;
    (match r.density with
    | None -> put_u8 b 0
    | Some d ->
        put_u8 b 1;
        put_floats b d);
    Buffer.contents b

  let encode_request ?(limits = P.default_limits) req =
    ignore limits;
    match req with
    | P.Ping -> encode_frame ~kind:k_ping ""
    | Metrics -> encode_frame ~kind:k_metrics ""
    | Stats -> encode_frame ~kind:k_stats ""
    | Recon r -> encode_frame ~kind:k_recon (encode_recon_payload r)

  let encode_response = function
    | P.Pong -> encode_frame ~kind:k_pong ""
    | Text s -> encode_frame ~kind:k_text s
    | Err (status, msg) -> encode_frame ~kind:(status_code status) msg
    | Recon_ok r ->
        let b = Buffer.create (64 + (8 * Array.length r.image)) in
        put_u32 b r.iterations;
        put_f64 b r.elapsed_s;
        put_u32 b r.image_n;
        put_u8 b r.image_dims;
        put_floats b r.image;
        encode_frame ~kind:k_recon_ok (Buffer.contents b)
end

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let golden_request =
  P.Recon
    { P.tenant = "acme"; backend = "serial"; n = 16; dims = 2;
      method_ = P.Cg 4; tol = Some 1e-5; family = Some Numerics.Window.ES;
      transform = Nufft.Transform.Type1;
      omega = [| [| 0.5; -1.25 |]; [| 3.0; -0.0 |] |];
      values = [| 1.0; -2.0; 0.25; infinity |];
      density = Some [| 1.5; 0.75 |] }

let golden_request_hex =
  "4a475331020000000078000461636d65000673657269616c0100000004000000100201\
   3ee4f8b588e368f10200000000023fe0000000000000bff40000000000004008000000\
   00000080000000000000003ff0000000000000c0000000000000003fd0000000000000\
   7ff0000000000000013ff80000000000003fe8000000000000"

let golden_response =
  P.Recon_ok
    { P.iterations = 4; elapsed_s = 0.125; image_n = 2; image_dims = 2;
      image = [| 1.0; 0.0; -0.5; 2.0; 0.125; -0.0; 3.0; neg_infinity |] }

let golden_response_hex =
  "4a475331810000000051000000043fc000000000000000000002023ff0000000000000\
   0000000000000000bfe000000000000040000000000000003fc0000000000000800000\
   00000000004008000000000000fff0000000000000"

let test_golden_frames () =
  check Alcotest.string "recon request frame" golden_request_hex
    (hex (P.encode_request golden_request));
  check Alcotest.string "recon response frame" golden_response_hex
    (hex (P.encode_response golden_response));
  (* and the goldens decode back to the messages they were made from *)
  let frame_of bytes =
    let dec = P.Decoder.create () in
    P.Decoder.feed_string dec bytes;
    match P.Decoder.next dec with
    | Ok (Some f) -> f
    | _ -> Alcotest.fail "golden frame does not decode"
  in
  (match P.decode_request (frame_of (P.encode_request golden_request)) with
  | Ok r -> checkb "golden request round-trips" true
              (P.request_equal r golden_request)
  | Error e -> Alcotest.failf "golden request: %s" (P.error_message e));
  match P.decode_response (frame_of (P.encode_response golden_response)) with
  | Ok (P.Recon_ok r) ->
      checkb "golden image round-trips" true
        (Array.for_all2
           (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
           r.P.image
           (match golden_response with
           | P.Recon_ok g -> g.P.image
           | _ -> assert false))
  | _ -> Alcotest.fail "golden response does not decode"

(* Floats whose bit patterns a careless codec would change: NaNs with
   distinct payloads and signs, both zeros, both infinities, the
   subnormal edge. *)
let gen_special_float =
  QCheck.Gen.(
    frequency
      [ (4, float);
        ( 3,
          oneofl
            [ Float.nan; -.Float.nan; Int64.float_of_bits 0x7ff0000000000123L;
              Int64.float_of_bits 0xfff8000000abcdefL; 0.0; -0.0; infinity;
              neg_infinity; Float.min_float; 4.9e-324; Float.max_float ] ) ])

let gen_wire_recon =
  QCheck.Gen.(
    let* base = gen_recon_request in
    let* dims = int_range 1 3 in
    let* m = int_range 0 24 in
    (* occasionally ragged axes: the encoder writes whatever it is given *)
    let* ragged = frequency [ (4, return false); (1, return true) ] in
    let* omega =
      array_repeat dims
        (let* len = if ragged then int_range 0 24 else return m in
         array_repeat len gen_special_float)
    in
    let* values = array_repeat (2 * m) gen_special_float in
    let* density = opt (array_repeat m gen_special_float) in
    let* tol = opt gen_special_float in
    return { base with P.dims; omega; values; density; tol })

let gen_wire_response =
  QCheck.Gen.(
    frequency
      [ (1, return P.Pong);
        (1, map (fun s -> P.Text s) (string_size (int_range 0 64)));
        ( 1,
          let* st =
            oneofl [ P.Bad_request; P.Shed; P.Quota; P.Internal_error ]
          in
          let* msg = string_size (int_range 0 40) in
          return (P.Err (st, msg)) );
        ( 4,
          let* iterations = int_range 0 100 in
          let* elapsed_s = gen_special_float in
          let* image_n = int_range 2 32 in
          let* image_dims = int_range 1 3 in
          let* image = array_size (int_range 0 64) gen_special_float in
          return
            (P.Recon_ok { P.iterations; elapsed_s; image_n; image_dims; image })
        ) ])

let prop_encoders_match_oracle =
  QCheck.Test.make ~name:"encoders = element-wise oracle, byte for byte"
    ~count:200
    QCheck.(
      make
        Gen.(
          pair
            (frequency
               [ (1, return P.Ping); (1, return P.Metrics);
                 (1, return P.Stats);
                 (6, map (fun r -> P.Recon r) gen_wire_recon) ])
            gen_wire_response))
    (fun (req, resp) ->
      P.encode_request req = Oracle.encode_request req
      && P.encode_response resp = Oracle.encode_response resp)

(* ------------------------------------------------------------------ *)
(* Decoder buffer ceiling *)

let drain_one dec =
  match P.Decoder.next dec with
  | Ok (Some f) -> f
  | Ok None -> Alcotest.fail "frame expected"
  | Error e -> Alcotest.failf "decoder: %s" (P.error_message e)

let test_decoder_gives_memory_back () =
  let dec = P.Decoder.create () in
  let initial = P.Decoder.capacity dec in
  let big = P.encode_frame ~kind:0x82 (String.make (4 lsl 20) 'x') in
  P.Decoder.feed_string dec big;
  checkb "grown to hold the 4 MiB frame" true
    (P.Decoder.capacity dec >= String.length big);
  let f = drain_one dec in
  check Alcotest.int "whole payload" (4 lsl 20) (String.length f.P.payload);
  check Alcotest.int "drained buffer back to its initial size" initial
    (P.Decoder.capacity dec);
  (* a serve-sized frame (~123 KB) keeps its buffer across requests *)
  let omega = [| Array.make 3072 0.5; Array.make 3072 (-0.5) |] in
  let serve =
    P.encode_request
      (P.Recon
         { P.tenant = "t"; backend = ""; n = 64; dims = 2;
           method_ = P.Adjoint; tol = None; family = None;
           transform = Nufft.Transform.Type1; omega;
           values = Array.make 6144 1.0; density = Some (Array.make 3072 1.0) })
  in
  P.Decoder.feed_string dec serve;
  ignore (drain_one dec);
  let kept = P.Decoder.capacity dec in
  checkb "serve-sized buffer retained" true
    (kept >= String.length serve && kept > initial);
  P.Decoder.feed_string dec serve;
  ignore (drain_one dec);
  check Alcotest.int "no regrowth for the next request" kept
    (P.Decoder.capacity dec);
  check Alcotest.int "nothing pending" 0 (P.Decoder.pending_bytes dec)

(* ------------------------------------------------------------------ *)
(* Allocation guards: a codec that boxes each float allocates 16 bytes
   per element on top of its output, which no bitwise test can see. *)

let least_bytes f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to 5 do
    let b0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Gc.allocated_bytes () -. b0)
  done;
  !best

let float_array_bytes n = float_of_int (8 * (n + 1))

let test_codec_allocation () =
  let m = 3072 in
  let omega = [| Array.make m 0.25; Array.make m (-1.0) |] in
  let req =
    P.Recon
      { P.tenant = "tenant-0"; backend = "serial"; n = 64; dims = 2;
        method_ = P.Cg 8; tol = Some 1e-4; family = None;
        transform = Nufft.Transform.Type1; omega;
        values = Array.make (2 * m) 0.5; density = Some (Array.make m 1.0) }
  in
  let bytes = P.encode_request req in
  let frame = { P.kind = 0x02;
                payload = String.sub bytes P.header_len
                    (String.length bytes - P.header_len) } in
  let slack = 1024.0 in
  let string_bytes s = float_of_int (8 * ((String.length s / 8) + 2)) in
  let enc = least_bytes (fun () -> P.encode_request req) in
  checkb
    (Printf.sprintf "encode_request allocates %g <= frame %g + 1 KiB" enc
       (string_bytes bytes))
    true (enc <= string_bytes bytes +. slack);
  let outputs =
    (2. *. float_array_bytes m) +. float_array_bytes (2 * m)
    +. float_array_bytes m
  in
  let dec = least_bytes (fun () -> P.decode_request frame) in
  checkb
    (Printf.sprintf "decode_request allocates %g <= outputs %g + 1 KiB" dec
       outputs)
    true (dec <= outputs +. slack);
  let image = Array.make (2 * 64 * 64) 0.125 in
  let resp =
    P.Recon_ok
      { P.iterations = 8; elapsed_s = 0.001; image_n = 64; image_dims = 2;
        image }
  in
  let rbytes = P.encode_response resp in
  let rframe = { P.kind = 0x81;
                 payload = String.sub rbytes P.header_len
                     (String.length rbytes - P.header_len) } in
  let renc = least_bytes (fun () -> P.encode_response resp) in
  checkb
    (Printf.sprintf "encode_response allocates %g <= frame %g + 1 KiB" renc
       (string_bytes rbytes))
    true (renc <= string_bytes rbytes +. slack);
  let rdec = least_bytes (fun () -> P.decode_response rframe) in
  let image_bytes = float_array_bytes (Array.length image) in
  checkb
    (Printf.sprintf "decode_response allocates %g <= image %g + 1 KiB" rdec
       image_bytes)
    true (rdec <= image_bytes +. slack)

let () =
  Alcotest.run "protocol"
    [ ( "roundtrip",
        Qutil.to_alcotests
          [ prop_roundtrip; prop_fragmentation; prop_response_roundtrip ] );
      ( "torn-reads",
        [ Alcotest.test_case "every byte boundary" `Quick
            test_every_byte_boundary ] );
      ( "rejection",
        [ Alcotest.test_case "bad magic poisons" `Quick test_bad_magic;
          Alcotest.test_case "bad kind" `Quick test_bad_kind;
          Alcotest.test_case "oversized header" `Quick test_oversized_header;
          Alcotest.test_case "oversized strings/counts" `Quick
            test_oversized_strings_and_counts;
          Alcotest.test_case "truncated and trailing" `Quick
            test_truncated_and_trailing;
          Alcotest.test_case "unknown transform code" `Quick
            test_unknown_transform_code ] );
      ( "keep-alive",
        [ Alcotest.test_case "no state leakage" `Quick
            test_keepalive_no_state_leakage;
          Alcotest.test_case "http sniff" `Quick test_http_sniff;
          Alcotest.test_case "drained buffer gives memory back" `Quick
            test_decoder_gives_memory_back ] );
      ( "wire",
        Alcotest.test_case "golden frames" `Quick test_golden_frames
        :: Qutil.to_alcotests [ prop_encoders_match_oracle ] );
      ( "allocation",
        [ Alcotest.test_case "codecs allocate their output only" `Quick
            test_codec_allocation ] ) ]
