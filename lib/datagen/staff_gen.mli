(** The paper's synthetic data set (Sec. 5.2): documents generated from the
    manager/department/employee DTD — manager holds a name and one or more
    of (manager | department | employee); department holds a name, an
    optional email, one or more employees and zero or more departments;
    employee holds names and an optional email; name and email are text.

    [manager] and [department] are recursive (hence have the overlap
    property); [employee], [email] and [name] are not. *)

open Xmlest_xmldb

(* lint: allow unused-export — tests validate generated staff documents against it *)
val dtd : unit -> Dtd.t
(** The DTD exactly as printed in the paper. *)

val generate : ?seed:int -> ?scale:float -> unit -> Elem.t
(** Generate a staff document.  With the default [scale = 1.0] the node
    counts land near the paper's Table 3 (44 manager, 270 department, 473
    employee, 173 email, 1002 name ⇒ ~2000 nodes); larger scales multiply
    the target size. *)
