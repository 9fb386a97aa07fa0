type reason =
  | Build_failed of string
  | Crashed of string
  | Wrong_answer
  | Timed_out of float

type t = {
  table : (string, reason) Hashtbl.t;
  lock : Mutex.t;
}

let create () = { table = Hashtbl.create 256; lock = Mutex.create () }

let add t key reason =
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.table key reason)

let find t key =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table key)

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)

let bindings t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [])
  |> List.sort compare
