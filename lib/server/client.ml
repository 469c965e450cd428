(* Blocking client for the JGS1 protocol — used by the CLI's [serve
   --probe], the load bench, and the test batteries. One outstanding
   request per connection (the server answers in order). *)

type call_error =
  | Closed  (** server closed the connection before a full response *)
  | Protocol_error of Protocol.error
  | Io_error of string

let call_error_message = function
  | Closed -> "connection closed by server"
  | Protocol_error e -> Protocol.error_message e
  | Io_error msg -> "i/o error: " ^ msg

type t = {
  fd : Unix.file_descr;
  dec : Protocol.Decoder.t;
  chunk : Bytes.t;
}

let connect ?(host = "127.0.0.1") ?limits ~port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  match
    Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string host, port))
  with
  | () ->
      (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
      { fd; dec = Protocol.Decoder.create ?limits (); chunk = Bytes.create 65536 }
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_raw t s =
  let b = Bytes.unsafe_of_string s in
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write t.fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  try
    go 0;
    Ok ()
  with Unix.Unix_error (e, _, _) -> Error (Io_error (Unix.error_message e))

let rec recv_response t =
  match Protocol.Decoder.next t.dec with
  | Error e -> Error (Protocol_error e)
  | Ok (Some frame) -> (
      match Protocol.decode_response frame with
      | Ok r -> Ok r
      | Error e -> Error (Protocol_error e))
  | Ok None -> (
      match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
      | 0 -> Error Closed
      | n ->
          (* [feed] copies the bytes out before the chunk is reused. *)
          Protocol.Decoder.feed t.dec (Bytes.unsafe_to_string t.chunk) 0 n;
          recv_response t
      | exception Unix.Unix_error (EINTR, _, _) -> recv_response t
      | exception Unix.Unix_error (e, _, _) ->
          Error (Io_error (Unix.error_message e)))

let call t request =
  match send_raw t (Protocol.encode_request request) with
  | Error _ as e -> e
  | Ok () -> recv_response t

let ping t =
  match call t Protocol.Ping with
  | Ok Protocol.Pong -> Ok ()
  | Ok (Protocol.Err (s, m)) -> Error (Io_error (Protocol.status_name s ^ ": " ^ m))
  | Ok _ -> Error (Io_error "unexpected response to ping")
  | Error _ as e -> e

let metrics t =
  match call t Protocol.Metrics with
  | Ok (Protocol.Text s) -> Ok s
  | Ok (Protocol.Err (s, m)) -> Error (Io_error (Protocol.status_name s ^ ": " ^ m))
  | Ok _ -> Error (Io_error "unexpected response to metrics")
  | Error _ as e -> e
