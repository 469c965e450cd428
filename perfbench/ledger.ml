(* The stage ledger: spans recorded from the benchmark's own code around
   each call into a layer's public functions.

   A span has a name, a start and a duration on the monotonic clock, the
   span that was open when it began (its parent), and the id of the
   request it belongs to. Spans stay in memory (bounded; overflow is
   counted, not recorded) and are written out as Chrome trace_event JSON
   when the run ends. With the ledger off, [span] is a direct call. *)

type event = {
  name : string;
  ts_ns : int;
  dur_ns : int;
  parent : int;  (** index of the enclosing event, -1 at top level *)
  req : int;
}

let capacity = 400_000
let on = ref false
let events : event array ref = ref [||]
let count = ref 0
let dropped = ref 0
let open_stack : int list ref = ref []
let request = ref 0

let enable () =
  on := true;
  events := Array.make 1024 { name = ""; ts_ns = 0; dur_ns = 0; parent = -1; req = 0 }

let set_request id = request := id

let push e =
  if !count >= capacity then incr dropped
  else begin
    if !count = Array.length !events then begin
      let a = Array.make (2 * !count) e in
      Array.blit !events 0 a 0 !count;
      events := a
    end;
    !events.(!count) <- e;
    incr count
  end

(* [span name f] runs [f] inside a span. The slot is reserved before [f]
   runs so children can name it as their parent. *)
let span name f =
  if not !on then f ()
  else begin
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    let slot = !count in
    let req = !request in
    let t0 = Telemetry.Clock.now_ns () in
    push { name; ts_ns = t0; dur_ns = 0; parent; req };
    open_stack := slot :: !open_stack;
    let finish () =
      open_stack := List.tl !open_stack;
      if slot < !count then
        !events.(slot) <- { (!events.(slot)) with dur_ns = Telemetry.Clock.now_ns () - t0 }
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* Record a span measured elsewhere (another thread's timestamps). *)
let record name ~ts_ns ~dur_ns ~req =
  if !on then push { name; ts_ns; dur_ns; parent = -1; req }

(* Durations (ms) of every recorded span called [name]. *)
let durations_ms name =
  let b = Stats.Buf.create () in
  for i = 0 to !count - 1 do
    let e = !events.(i) in
    if e.name = name then Stats.Buf.push b (float_of_int e.dur_ns *. 1e-6)
  done;
  Stats.Buf.to_array b

let median_ms name =
  let d = durations_ms name in
  if Array.length d = 0 then 0.0 else Stats.median d

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let base = if !count = 0 then 0 else !events.(0).ts_ns in
      output_string oc "{\"traceEvents\": [\n";
      for i = 0 to !count - 1 do
        let e = !events.(i) in
        Printf.fprintf oc
          "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
           \"dur\": %.3f, \"args\": {\"req\": %d, \"parent\": %d}}"
          (if i = 0 then "" else ",\n")
          e.name
          (float_of_int (e.ts_ns - base) *. 1e-3)
          (float_of_int e.dur_ns *. 1e-3)
          e.req e.parent
      done;
      Printf.fprintf oc "\n], \"droppedSpans\": %d}\n" !dropped)
