module Make (H : Hashtbl.HashedType) = struct
  module Set = Weak.Make (H)

  let set = Set.create 16
  let mutex = Mutex.create ()

  let find_or_build probe build =
    match Mutex.protect mutex (fun () -> Set.find_opt set probe) with
    | Some v -> (v, false)
    | None ->
        let v = build () in
        let adopted = Mutex.protect mutex (fun () -> Set.merge set v) in
        (adopted, adopted == v)
end
