type outcome = { text : string; speedup : float; evaluations : int }

type 'a member = {
  id : string;
  tenant : string;
  deadline : float option;  (* absolute Ft_util.Clock.now seconds *)
  payload : 'a;
}

type state = Queued | Running

type 'a group = {
  spec : Protocol.tune_spec;
  leader : string;
  mutable state : state;
  mutable members_rev : 'a member list;
}

type 'a t = {
  max_queue : int;
  groups : (string, 'a group) Hashtbl.t;  (* fingerprint → live group *)
  pending : (string, string Queue.t) Hashtbl.t;  (* tenant → queued fps *)
  mutable ring : string list;  (* tenants in first-seen order, oldest first *)
  mutable cursor : int;  (* ring index served next *)
  memo : (string, outcome) Hashtbl.t;
  mutable is_draining : bool;
  mutable waiting : int;
}

let create ~max_queue =
  if max_queue < 1 then
    invalid_arg "Scheduler.create: max_queue must be positive";
  {
    max_queue;
    groups = Hashtbl.create 64;
    pending = Hashtbl.create 16;
    ring = [];
    cursor = 0;
    memo = Hashtbl.create 64;
    is_draining = false;
    waiting = 0;
  }

type verdict =
  | Fresh
  | Joined of { leader : string }
  | Memoized of outcome
  | Refused of Protocol.reject_reason

let tenant_queue t tenant =
  match Hashtbl.find_opt t.pending tenant with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add t.pending tenant q;
      t.ring <- t.ring @ [ tenant ];
      q

let submit t ~spec ~fingerprint member =
  if t.is_draining then Refused Protocol.Draining
  else
    match Hashtbl.find_opt t.memo fingerprint with
    | Some outcome -> Memoized outcome
    | None ->
        if t.waiting >= t.max_queue then
          Refused (Protocol.Queue_full { limit = t.max_queue })
        else (
          t.waiting <- t.waiting + 1;
          match Hashtbl.find_opt t.groups fingerprint with
          | Some group ->
              group.members_rev <- member :: group.members_rev;
              Joined { leader = group.leader }
          | None ->
              Hashtbl.replace t.groups fingerprint
                {
                  spec;
                  leader = member.id;
                  state = Queued;
                  members_rev = [ member ];
                };
              Queue.push fingerprint (tenant_queue t member.tenant);
              Fresh)

let remember t ~fingerprint outcome = Hashtbl.replace t.memo fingerprint outcome
let known t ~fingerprint = Hashtbl.find_opt t.memo fingerprint

let members t ~fingerprint =
  match Hashtbl.find_opt t.groups fingerprint with
  | None -> []
  | Some group -> List.rev group.members_rev

(* Oldest still-queued group of a tenant.  Cancelled groups (last member
   dropped) leave stale fingerprints behind; they are skipped here. *)
let rec pop_queued t q =
  match Queue.take_opt q with
  | None -> None
  | Some fp -> (
      match Hashtbl.find_opt t.groups fp with
      | Some group when group.state = Queued -> Some (fp, group)
      | _ -> pop_queued t q)

let next t =
  let tenants = Array.of_list t.ring in
  let n = Array.length tenants in
  let rec scan step =
    if step >= n then None
    else
      let i = (t.cursor + step) mod n in
      match Hashtbl.find_opt t.pending tenants.(i) with
      | None -> scan (step + 1)
      | Some q -> (
          match pop_queued t q with
          | None -> scan (step + 1)
          | Some (fp, group) ->
              group.state <- Running;
              t.cursor <- (i + 1) mod n;
              Some (group.spec, fp))
  in
  if n = 0 then None else scan 0

let take_members t fingerprint =
  match Hashtbl.find_opt t.groups fingerprint with
  | None -> []
  | Some group ->
      Hashtbl.remove t.groups fingerprint;
      let members = List.rev group.members_rev in
      t.waiting <- t.waiting - List.length members;
      members

let complete t ~fingerprint outcome =
  Hashtbl.replace t.memo fingerprint outcome;
  take_members t fingerprint

(* No memo entry: an error is not a result, and an abandoned search
   produced none. *)
let fail t ~fingerprint = take_members t fingerprint

(* Sweep every group for members whose deadline has passed, removing
   them (the server answers each with a typed rejection).  A queued
   group emptied by the sweep is dropped like [drop_member] would; a
   running group emptied here is the server's business to cancel at its
   next tick. *)
let expire t ~now =
  let gone = ref [] in
  Hashtbl.iter
    (fun fp group ->
      let expired, kept =
        List.partition
          (fun m ->
            match m.deadline with Some d -> d <= now | None -> false)
          group.members_rev
      in
      if expired <> [] then begin
        group.members_rev <- kept;
        t.waiting <- t.waiting - List.length expired;
        List.iter (fun m -> gone := (fp, m) :: !gone) expired;
        if kept = [] && group.state = Queued then Hashtbl.remove t.groups fp
      end)
    (Hashtbl.copy t.groups);
  !gone

let drop_member t ~fingerprint ~id =
  match Hashtbl.find_opt t.groups fingerprint with
  | None -> ()
  | Some group ->
      let before = List.length group.members_rev in
      group.members_rev <-
        List.filter (fun m -> m.id <> id) group.members_rev;
      let dropped = before - List.length group.members_rev in
      t.waiting <- t.waiting - dropped;
      if group.members_rev = [] && group.state = Queued then
        Hashtbl.remove t.groups fingerprint

let drain t = t.is_draining <- true
let queue_depth t = t.waiting
let idle t = Hashtbl.length t.groups = 0
